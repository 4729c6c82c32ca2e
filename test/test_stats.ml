module Stats = Repro_util.Stats
module Rng = Repro_util.Rng

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_f msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

let test_mean () =
  check_f "empty" 0.0 (Stats.mean [||]);
  check_f "single" 4.0 (Stats.mean [| 4.0 |]);
  check_f "several" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |])

let test_median () =
  check_f "odd" 3.0 (Stats.median [| 5.0; 3.0; 1.0 |]);
  check_f "even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  check_f "empty" 0.0 (Stats.median [||])

let test_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_f "p0" 10.0 (Stats.percentile xs 0.0);
  check_f "p100" 40.0 (Stats.percentile xs 100.0);
  check_f "p50" 25.0 (Stats.percentile xs 50.0);
  (* does not mutate *)
  Alcotest.(check (array (float 0.0))) "unchanged" [| 10.0; 20.0; 30.0; 40.0 |] xs

let test_cdf () =
  let c = Stats.cdf [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check int) "points" 3 (Array.length c);
  Alcotest.(check bool) "sorted and ends at 1" true
    (fst c.(0) = 1.0 && feq (snd c.(2)) 1.0 && snd c.(0) < snd c.(2))

let test_zipf_range_and_skew () =
  let z = Stats.Zipf.create ~n:100 ~s:1.0 in
  let rng = Rng.create 3 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Stats.Zipf.sample z rng in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 100);
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "heavy head" true (counts.(0) > 20_000 / 20)

let qcheck_cdf_monotone =
  QCheck.Test.make ~name:"cdf is monotone" ~count:200
    QCheck.(array_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let c = Stats.cdf xs in
      let ok = ref true in
      for i = 1 to Array.length c - 1 do
        if fst c.(i) < fst c.(i - 1) || snd c.(i) < snd c.(i - 1) then ok := false
      done;
      !ok)

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.int_range 1 50) (float_range (-50.) 50.))
        (float_range 0. 100.))
    (fun (xs, p) ->
      let v = Stats.percentile xs p in
      let mn = Array.fold_left Float.min infinity xs in
      let mx = Array.fold_left Float.max neg_infinity xs in
      v >= mn -. 1e-9 && v <= mx +. 1e-9)

let suite =
  [
    ( "stats",
      [
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "median" `Quick test_median;
        Alcotest.test_case "percentile" `Quick test_percentile;
        Alcotest.test_case "cdf" `Quick test_cdf;
        Alcotest.test_case "zipf range and skew" `Quick test_zipf_range_and_skew;
        QCheck_alcotest.to_alcotest qcheck_cdf_monotone;
        QCheck_alcotest.to_alcotest qcheck_percentile_bounds;
      ] );
  ]
