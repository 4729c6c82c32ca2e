(* window [w] covers [w * window, (w + 1) * window); its sum and sample
   count sit at index [w] of two growable unboxed arrays, so [add]
   allocates nothing once the arrays cover the window *)
type t = {
  window : float;
  mutable sums : Float.Array.t;
  mutable counts : int array;
  mutable length : int; (* one past the highest window with a sample *)
}

let create ~window =
  if window <= 0.0 then invalid_arg "Series.create";
  { window; sums = Float.Array.make 16 0.0; counts = Array.make 16 0; length = 0 }

let mid t w = (float_of_int w +. 0.5) *. t.window
let length t = t.length

let grow t w =
  let n = max (w + 1) (2 * Array.length t.counts) in
  let sums = Float.Array.make n 0.0 and counts = Array.make n 0 in
  Float.Array.blit t.sums 0 sums 0 t.length;
  Array.blit t.counts 0 counts 0 t.length;
  t.sums <- sums;
  t.counts <- counts

let add t ~time v =
  if not (time >= 0.0 && time < infinity) then invalid_arg "Series.add";
  let w = int_of_float (time /. t.window) in
  if w >= Array.length t.counts then grow t w;
  Float.Array.set t.sums w (Float.Array.get t.sums w +. v);
  t.counts.(w) <- t.counts.(w) + 1;
  if w >= t.length then t.length <- w + 1

let count t ~time = add t ~time 1.0

let integrate t ~from ~until level =
  let rec go t0 =
    if t0 < until then begin
      let wend = Float.min ((floor (t0 /. t.window) +. 1.0) *. t.window) until in
      add t ~time:t0 (level *. (wend -. t0));
      go wend
    end
  in
  go from

let samples t w = if w >= 0 && w < t.length then t.counts.(w) else 0
let sum t w = if w >= 0 && w < t.length then Float.Array.get t.sums w else 0.0

(* [(mid, f w)] for every window with a sample, in window order *)
let collect t f =
  let acc = ref [] in
  for w = t.length - 1 downto 0 do
    if t.counts.(w) > 0 then acc := (mid t w, f w) :: !acc
  done;
  Array.of_list !acc

let sums t = collect t (fun w -> Float.Array.get t.sums w)

let means t =
  collect t (fun w -> Float.Array.get t.sums w /. float_of_int t.counts.(w))
