module Rng = Repro_util.Rng

let test_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_split_independent () =
  let a = Rng.create 7 in
  let c1 = Rng.split a in
  let c2 = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 c1 = Rng.bits64 c2 then incr same
  done;
  Alcotest.(check bool) "children differ" true (!same < 4)

let test_copy_same_stream () =
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 20 do
    Alcotest.(check int64) "copy equal" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_int_rejects_nonpositive () =
  let r = Rng.create 1 in
  Alcotest.check_raises "zero" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_float_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float r 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_bytes_length () =
  let r = Rng.create 13 in
  Alcotest.(check int) "len" 16 (String.length (Rng.bytes r 16));
  Alcotest.(check int) "len0" 0 (String.length (Rng.bytes r 0))

let test_bytes_draws () =
  let r = Rng.create 19 in
  for n = 0 to 40 do
    let r' = Rng.copy r in
    Alcotest.(check string)
      (Printf.sprintf "n = %d" n)
      (String.init n (fun _ -> Char.chr (Rng.int r' 256)))
      (Rng.bytes r n)
  done

let test_exponential_mean () =
  let r = Rng.create 17 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential r ~mean:5.0
  done;
  let m = !acc /. float_of_int n in
  Alcotest.(check bool) "mean close to 5" true (Float.abs (m -. 5.0) < 0.25)

let test_normal_moments () =
  let r = Rng.create 19 in
  let n = 20_000 in
  let acc = ref 0.0 and acc2 = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.normal r ~mean:2.0 ~stddev:3.0 in
    acc := !acc +. v;
    acc2 := !acc2 +. (v *. v)
  done;
  let m = !acc /. float_of_int n in
  let var = (!acc2 /. float_of_int n) -. (m *. m) in
  Alcotest.(check bool) "mean" true (Float.abs (m -. 2.0) < 0.15);
  Alcotest.(check bool) "stddev" true (Float.abs (sqrt var -. 3.0) < 0.2)

let test_lognormal_median () =
  let r = Rng.create 23 in
  let n = 20_001 in
  let xs = Array.init n (fun _ -> Rng.lognormal r ~mu:(log 100.0) ~sigma:1.0) in
  let med = Repro_util.Stats.median xs in
  Alcotest.(check bool) "median near 100" true (med > 85.0 && med < 115.0)

let test_poisson_mean () =
  let r = Rng.create 29 in
  let n = 10_000 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Rng.poisson r ~mean:4.0
  done;
  let m = float_of_int !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (Float.abs (m -. 4.0) < 0.15);
  (* large-mean path *)
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Rng.poisson r ~mean:100.0
  done;
  let m = float_of_int !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 100" true (Float.abs (m -. 100.0) < 1.5)

let test_poisson_zero () =
  let r = Rng.create 31 in
  Alcotest.(check int) "zero mean" 0 (Rng.poisson r ~mean:0.0)

let test_shuffle_permutation () =
  let r = Rng.create 37 in
  let a = Array.init 50 (fun i -> i) in
  let b = Array.copy a in
  Rng.shuffle r b;
  let sb = Array.copy b in
  Array.sort compare sb;
  Alcotest.(check (array int)) "same multiset" a sb

let test_pick () =
  let r = Rng.create 41 in
  Alcotest.(check int) "singleton" 5 (Rng.pick r [| 5 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick r [||]))

let qcheck_int_bounds =
  QCheck.Test.make ~name:"Rng.int in [0,n)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let r = Rng.create seed in
      let v = Rng.int r n in
      v >= 0 && v < n)

let suite =
  [
    ( "rng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "different seeds" `Quick test_different_seeds;
        Alcotest.test_case "split independence" `Quick test_split_independent;
        Alcotest.test_case "copy same stream" `Quick test_copy_same_stream;
        Alcotest.test_case "int rejects non-positive" `Quick test_int_rejects_nonpositive;
        Alcotest.test_case "float bounds" `Quick test_float_bounds;
        Alcotest.test_case "bytes length" `Quick test_bytes_length;
        Alcotest.test_case "bytes draws int 256 per byte" `Quick test_bytes_draws;
        Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
        Alcotest.test_case "normal moments" `Quick test_normal_moments;
        Alcotest.test_case "lognormal median" `Quick test_lognormal_median;
        Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
        Alcotest.test_case "poisson zero mean" `Quick test_poisson_zero;
        Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
        Alcotest.test_case "pick" `Quick test_pick;
        QCheck_alcotest.to_alcotest qcheck_int_bounds;
      ] );
  ]
