(* an all-float record holds its floats unboxed, so [add] allocates
   nothing; as fields of [t] each update would box a new float *)
type acc = { mutable sum : float; mutable minv : float; mutable maxv : float }

let alpha = 0.01
let gamma = (1.0 +. alpha) /. (1.0 -. alpha)
let inv_lg = 1.0 /. log gamma (* hoisted out of [add] *)

type t = {
  lo : float;
  hi : float;
  counts : int array;  (* counts.(0) = underflow; counts.(1..nb) = log buckets *)
  mutable n : int;
  acc : acc;
}

let create ?(lo = 1e-6) ?(hi = 1e4) () =
  if not (lo > 0.0 && hi > lo) then invalid_arg "Hist.create: range";
  let nb = int_of_float (ceil (log (hi /. lo) /. log gamma)) in
  {
    lo;
    hi;
    counts = Array.make (nb + 1) 0;
    n = 0;
    acc = { sum = 0.0; minv = infinity; maxv = neg_infinity };
  }

let index t v =
  if v <= t.lo then 0
  else begin
    let nb = Array.length t.counts - 1 in
    let i = int_of_float (ceil (log (v /. t.lo) *. inv_lg)) in
    if i < 1 then 1 else if i > nb then nb else i
  end

let add t v =
  (* negated, so that nan fails too *)
  if not (v >= 0.0 && v < infinity) then invalid_arg "Hist.add";
  let i = index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  let a = t.acc in
  a.sum <- a.sum +. v;
  if v < a.minv then a.minv <- v;
  if v > a.maxv then a.maxv <- v

let count t = t.n
let sum t = t.acc.sum
let mean t = if t.n = 0 then nan else t.acc.sum /. float_of_int t.n
let min_value t = if t.n = 0 then nan else t.acc.minv
let max_value t = if t.n = 0 then nan else t.acc.maxv

(* Midpoint (in log space) of bucket i's range (lo*gamma^(i-1), lo*gamma^i]:
   the estimate 2*lo*gamma^i / (1+gamma) is within alpha of any value in
   the bucket. *)
let bucket_estimate t i =
  if i = 0 then t.acc.minv
  else 2.0 *. t.lo *. (gamma ** float_of_int i) /. (1.0 +. gamma)

let quantile t q =
  if t.n = 0 then nan
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let target = q *. float_of_int (t.n - 1) in
    let i = ref 0 and cum = ref t.counts.(0) in
    while float_of_int !cum <= target do
      incr i;
      cum := !cum + t.counts.(!i)
    done;
    let v = bucket_estimate t !i in
    (* tracked extremes are exact; clamping also bounds overflow clamps *)
    let a = t.acc in
    if v < a.minv then a.minv else if v > a.maxv then a.maxv else v
  end

let percentile t p = quantile t (p /. 100.0)

let merge a b =
  if a.lo <> b.lo || a.hi <> b.hi then invalid_arg "Hist.merge: parameter mismatch";
  let m = create ~lo:a.lo ~hi:a.hi () in
  Array.iteri (fun i c -> m.counts.(i) <- c + b.counts.(i)) a.counts;
  m.n <- a.n + b.n;
  m.acc.sum <- a.acc.sum +. b.acc.sum;
  m.acc.minv <- Float.min a.acc.minv b.acc.minv;
  m.acc.maxv <- Float.max a.acc.maxv b.acc.maxv;
  m

let summary_json t =
  let f v = Json.Float (if Float.is_nan v then 0.0 else v) in
  Json.Obj
    [
      ("count", Json.Int t.n);
      ("min", f (min_value t));
      ("max", f (max_value t));
      ("mean", f (mean t));
      ("p50", f (percentile t 50.0));
      ("p90", f (percentile t 90.0));
      ("p99", f (percentile t 99.0));
      ("p999", f (percentile t 99.9));
      ("alpha", Json.Float alpha);
    ]
