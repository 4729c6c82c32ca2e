(* the SplitMix64 state as 8 raw bytes: a mutable [int64] field would
   hold a box, and every draw would allocate a new one *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] bits64 t =
  let z = Int64.add (get64 t 0) golden in
  set64 t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (bits64 t)
let copy = Bytes.copy

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the value fits a non-negative OCaml int *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let float t x =
  (* 53 uniform bits in [0,1) *)
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. (v /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bytes t n =
  String.init n (fun _ -> Char.chr (int t 256))

let exponential t ~mean =
  let u = float t 1.0 in
  (* avoid log 0 *)
  let u = if u <= 0. then 1e-300 else u in
  -.mean *. log u

let normal t ~mean ~stddev =
  (* Box-Muller *)
  let u1 =
    let u = float t 1.0 in
    if u <= 0. then 1e-300 else u
  in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let lognormal t ~mu ~sigma = exp (normal t ~mean:mu ~stddev:sigma)

let poisson t ~mean =
  if mean <= 0. then 0
  else if mean > 30. then
    let s = normal t ~mean ~stddev:(sqrt mean) in
    max 0 (int_of_float (Float.round s))
  else begin
    let l = exp (-.mean) in
    let k = ref 0 and p = ref 1.0 in
    let continue = ref true in
    while !continue do
      incr k;
      p := !p *. float t 1.0;
      if !p <= l then continue := false
    done;
    !k - 1
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
