(* One side of the leaf set: [peers.(0 .. n-1)] in ascending distance
   from [me] in the side's direction, so binary search finds both a
   member and the rank a newcomer would take. Slots from [n] on hold
   [me] as a filler. [dists] holds the same members' directed distances
   from [me] ([Nodeid.dist_bytes] each, in slot order), so a search
   compares flat halves and never dereferences a member. *)
type side = {
  peers : Peer.t array; (* capacity l/2 *)
  dists : Bytes.t;
  mutable n : int;
  cw : bool; (* ordered by clockwise distance (right) or counter-clockwise (left) *)
}

type t = {
  l : int;
  me : Peer.t;
  left : side; (* counter-clockwise *)
  right : side; (* clockwise *)
  mutable shared : int; (* identifiers on both sides: the set wraps iff > 0 *)
  mutable view : Peer.t list option; (* [members], dropped on every change *)
  q : Bytes.t; (* the last searched identifier's distance on the searched side *)
}

let db = Nodeid.dist_bytes

let create ~l ~me =
  if l < 2 || l mod 2 <> 0 then invalid_arg "Leafset.create: l must be even and >= 2";
  let side cw =
    { peers = Array.make (l / 2) me; dists = Bytes.make (l / 2 * db) '\000'; n = 0; cw }
  in
  {
    l;
    me;
    left = side false;
    right = side true;
    shared = 0;
    view = None;
    q = Bytes.create db;
  }

let me t = t.me
let l t = t.l

(* rank of [id] on [s]: the index of the first member not strictly
   closer to [me] — where [id] sits if it is a member. Leaves [id]'s
   distance in [t.q] for {!holds}. *)
let search t s id =
  Nodeid.store_dist t.q 0 ~cw:s.cw ~from:t.me.Peer.id id;
  let n = s.n in
  if n = 0 || Nodeid.compare_dist s.dists ((n - 1) * db) t.q 0 < 0 then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Nodeid.compare_dist s.dists (mid * db) t.q 0 < 0 then lo := mid + 1 else hi := mid
    done;
    !lo
  end

(* is the identifier just searched on [s] the member at rank [i]? *)
let holds t s i = i < s.n && Nodeid.compare_dist s.dists (i * db) t.q 0 = 0
let side_mem t s id = holds t s (search t s id)

(* insert at its rank unless present or ranked past the capacity; the
   farthest member falls off a full side *)
let insert t s ~other peer =
  let id = peer.Peer.id in
  let i = search t s id in
  let cap = Array.length s.peers in
  if i >= cap || holds t s i then false
  else begin
    let full = s.n = cap in
    let evicted = s.peers.(cap - 1) in
    if full then s.n <- cap - 1;
    Array.blit s.peers i s.peers (i + 1) (s.n - i);
    Bytes.blit s.dists (i * db) s.dists ((i + 1) * db) ((s.n - i) * db);
    s.peers.(i) <- peer;
    Bytes.blit t.q 0 s.dists (i * db) db;
    s.n <- s.n + 1;
    if full && side_mem t other evicted.Peer.id then t.shared <- t.shared - 1;
    if side_mem t other id then t.shared <- t.shared + 1;
    true
  end

let delete t s id =
  let i = search t s id in
  if holds t s i then begin
    Array.blit s.peers (i + 1) s.peers i (s.n - i - 1);
    Bytes.blit s.dists ((i + 1) * db) s.dists (i * db) ((s.n - i - 1) * db);
    s.n <- s.n - 1;
    s.peers.(s.n) <- t.me;
    true
  end
  else false

let add t peer =
  if Nodeid.equal peer.Peer.id t.me.Peer.id then false
  else begin
    let on_left = insert t t.left ~other:t.right peer in
    let on_right = insert t t.right ~other:t.left peer in
    if on_left || on_right then t.view <- None;
    on_left || on_right
  end

let remove t id =
  let on_left = delete t t.left id in
  let on_right = delete t t.right id in
  if on_left && on_right then t.shared <- t.shared - 1;
  if on_left || on_right then t.view <- None;
  on_left || on_right

let mem t id = side_mem t t.left id || side_mem t t.right id

(* the right side, then the left-only members *)
let members t =
  match t.view with
  | Some v -> v
  | None ->
      let v = ref [] in
      for i = t.left.n - 1 downto 0 do
        let p = t.left.peers.(i) in
        if t.shared = 0 || not (side_mem t t.right p.Peer.id) then v := p :: !v
      done;
      for i = t.right.n - 1 downto 0 do
        v := t.right.peers.(i) :: !v
      done;
      t.view <- Some !v;
      !v

let size t = t.left.n + t.right.n - t.shared
let left_size t = t.left.n
let right_size t = t.right.n

let first s = if s.n = 0 then None else Some s.peers.(0)
let last s = if s.n = 0 then None else Some s.peers.(s.n - 1)

let left_neighbor t = first t.left
let right_neighbor t = first t.right
let leftmost t = last t.left
let rightmost t = last t.right

let wraps t = t.shared > 0

let complete t =
  let cap = t.l / 2 in
  (t.left.n = 0 && t.right.n = 0) || (t.left.n = cap && t.right.n = cap) || wraps t

let covers t k =
  wraps t
  ||
  match (t.left.n, t.right.n) with
  | 0, 0 -> true
  | 0, _ | _, 0 -> false
  | nl, nr ->
      Nodeid.in_cw_arc ~from:t.left.peers.(nl - 1).Peer.id
        ~til:t.right.peers.(nr - 1).Peer.id k

(* [best] or the member of [s] that beats it for [k]. A peer on both
   sides never beats itself, so scanning the right side then the left
   visits the candidates in [members] order without deduplicating. *)
let closest_on s k ~excluded best =
  let best = ref best in
  for i = 0 to s.n - 1 do
    let p = s.peers.(i) in
    if Nodeid.closer ~key:k p.Peer.id !best.Peer.id && not (excluded p.Peer.id) then best := p
  done;
  !best

(* [k] ranks [i] < [s.n] on [s], and [me] with every member lies on one
   line shorter than half the ring: the owner is the nearer of the first
   non-excluded member at or beyond rank [i] and the last one below it,
   or [me] *)
let closest_on_line t s i k ~excluded =
  let j = ref i in
  while !j < s.n && excluded s.peers.(!j).Peer.id do
    incr j
  done;
  let h = ref (i - 1) in
  while !h >= 0 && excluded s.peers.(!h).Peer.id do
    decr h
  done;
  let below = if !h >= 0 then s.peers.(!h) else t.me in
  if !j < s.n && Nodeid.closer ~key:k s.peers.(!j).Peer.id below.Peer.id then s.peers.(!j)
  else below

(* Unwrapped, both sides non-empty and the arc (leftmost's
   counter-clockwise plus rightmost's clockwise distance) below 2^127:
   ring distance between points of the arc is their distance along it.
   A key past both ends, or any other state, takes the scan. *)
let closest_excluding t k ~excluded =
  let l = t.left and r = t.right in
  if
    t.shared = 0 && l.n > 0 && r.n > 0
    && Nodeid.dist_sum_below_half l.dists ((l.n - 1) * db) r.dists ((r.n - 1) * db)
  then begin
    let i = search t r k in
    if i < r.n then closest_on_line t r i k ~excluded
    else
      let i = search t l k in
      if i < l.n then closest_on_line t l i k ~excluded
      else closest_on l k ~excluded (closest_on r k ~excluded t.me)
  end
  else closest_on l k ~excluded (closest_on r k ~excluded t.me)

let no_exclusion _ = false
let closest t k = closest_excluding t k ~excluded:no_exclusion

(* at most one search per side answers both "already a member?" and
   "would it rank inside the capacity?" *)
let would_admit t id =
  (not (Nodeid.equal id t.me.Peer.id))
  &&
  let il = search t t.left id in
  (not (holds t t.left il))
  &&
  let ir = search t t.right id in
  (not (holds t t.right ir)) && (il < t.l / 2 || ir < t.l / 2)

let pp fmt t =
  let side s = Array.to_list (Array.sub s.peers 0 s.n) in
  Format.fprintf fmt "@[<h>[%a] <- %a -> [%a]@]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f " ") Peer.pp)
    (List.rev (side t.left)) Peer.pp t.me
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f " ") Peer.pp)
    (side t.right)
