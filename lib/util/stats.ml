let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let sorted_copy xs =
  let c = Array.copy xs in
  Array.sort compare c;
  c

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let c = sorted_copy xs in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
    let frac = rank -. floor rank in
    (c.(lo) *. (1.0 -. frac)) +. (c.(hi) *. frac)
  end

let median xs = percentile xs 50.0

let cdf xs =
  let n = Array.length xs in
  let c = sorted_copy xs in
  Array.mapi (fun i v -> (v, float_of_int (i + 1) /. float_of_int n)) c

module Zipf = struct
  type t = { cumulative : float array }

  let create ~n ~s =
    if n <= 0 then invalid_arg "Zipf.create";
    let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    let cumulative =
      Array.map
        (fun x ->
          acc := !acc +. (x /. total);
          !acc)
        w
    in
    { cumulative }

  let sample t rng =
    let u = Rng.float rng 1.0 in
    (* binary search for the first cumulative weight >= u *)
    let lo = ref 0 and hi = ref (Array.length t.cumulative - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cumulative.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
end
