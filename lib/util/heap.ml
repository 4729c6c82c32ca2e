(* An entry is a key, an insertion sequence number and the pool slot of
   its value, at one index of [keys], [seqs] and [slots]; the sifts move
   those three unboxed, and a value stays at its slot of [pool] from
   push to pop, so sifting writes no pointer (no write barrier). Indices
   [size] and beyond of [slots] hold the free pool slots, so a push takes
   the free slot at its index and a pop leaves its value's slot at the
   index it vacates. A free slot keeps its last value until reused. *)
type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pool : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; slots = [||]; pool = [||]; size = 0; next_seq = 0 }

let size t = t.size
let is_empty t = t.size = 0

(* Every index the sifts touch is under [size], so they skip bounds
   checks. As primitives these specialise to the array's type at each
   use: a float array read stays unboxed, which a function wrapping
   them would not. *)
external get : 'a array -> int -> 'a = "%array_unsafe_get"
external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* room for one more entry, at [size] = capacity; [v] fills the new
   pool slots, which become the free ones *)
let grow t v =
  let n = t.size in
  let cap = if n = 0 then 16 else 2 * n in
  let keys = Array.make cap 0.0 and seqs = Array.make cap 0 in
  let slots = Array.init cap Fun.id and pool = Array.make cap v in
  Array.blit t.keys 0 keys 0 n;
  Array.blit t.seqs 0 seqs 0 n;
  Array.blit t.slots 0 slots 0 n;
  Array.blit t.pool 0 pool 0 n;
  t.keys <- keys;
  t.seqs <- seqs;
  t.slots <- slots;
  t.pool <- pool

(* Sift the entry at [i], whose key is already in [keys.(i)], up through
   a hole. Its sequence number is the largest in the heap, so it passes
   a parent only on a strictly smaller key. *)
let sift_up t i v =
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let key = get keys i and slot = get slots i in
  set t.pool slot v;
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let kp = get keys p in
    if key < kp then begin
      set keys !i kp;
      set seqs !i (get seqs p);
      set slots !i (get slots p);
      i := p
    end
    else moving := false
  done;
  set keys !i key;
  set seqs !i t.next_seq;
  set slots !i slot;
  t.next_seq <- t.next_seq + 1

(* Inlined so the key reaches the array without being boxed; the loop
   lives in [sift_up], which takes no float. *)
let[@inline] push t key v =
  if Float.is_nan key then invalid_arg "Heap.push: NaN key";
  if t.size = Array.length t.keys then grow t v;
  let i = t.size in
  t.size <- i + 1;
  set t.keys i key;
  sift_up t i v

let[@inline] min_key t =
  if t.size = 0 then invalid_arg "Heap.min_key: empty";
  get t.keys 0

let min_value t =
  if t.size = 0 then invalid_arg "Heap.min_value: empty";
  get t.pool (get t.slots 0)

let pop t =
  if t.size = 0 then invalid_arg "Heap.pop: empty";
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let freed = get slots 0 in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* sift the last entry down from the root through a hole *)
    let key = get keys n and seq = get seqs n and slot = get slots n in
    let i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        (* the child that pops first: smaller key, or equal keys and
           earlier insertion *)
        let c =
          if l + 1 < n then begin
            let kl = get keys l and kr = get keys (l + 1) in
            if kr < kl || (kr = kl && get seqs (l + 1) < get seqs l) then l + 1 else l
          end
          else l
        in
        let kc = get keys c in
        if kc < key || (kc = key && get seqs c < seq) then begin
          set keys !i kc;
          set seqs !i (get seqs c);
          set slots !i (get slots c);
          i := c
        end
        else moving := false
      end
    done;
    set keys !i key;
    set seqs !i seq;
    set slots !i slot
  end;
  set slots n freed;
  get t.pool freed
