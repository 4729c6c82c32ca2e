module Hist = Repro_obs.Hist

(* Exact order statistic with the same rank rule as Hist.quantile: the
   0-based index of the sample a cumulative-count walk past q*(n-1)
   lands on. *)
let exact_at sorted q =
  let n = Array.length sorted in
  let target = q *. float_of_int (n - 1) in
  let i = int_of_float (floor target) in
  sorted.(max 0 (min (n - 1) i))

let rel_err est truth =
  if truth = 0.0 then Float.abs est else Float.abs (est -. truth) /. truth

let test_empty () =
  let h = Hist.create () in
  Alcotest.(check int) "count" 0 (Hist.count h);
  Alcotest.(check bool) "quantile nan" true (Float.is_nan (Hist.quantile h 0.5));
  Alcotest.(check bool) "min nan" true (Float.is_nan (Hist.min_value h))

let test_single_value () =
  let h = Hist.create () in
  Hist.add h 0.123;
  (* min/max clamping makes a single sample exact at every quantile *)
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "q=%.2f" q)
        0.123 (Hist.quantile h q))
    [ 0.0; 0.5; 1.0 ]

let test_out_of_range_clamped () =
  (* values below [lo] land in the underflow bucket but the estimate is
     clamped to the observed min/max, so tiny samples stay exact *)
  let h = Hist.create ~lo:1e-6 ~hi:1e4 () in
  Hist.add h 1e-9;
  Alcotest.(check (float 1e-15)) "tiny sample exact" 1e-9 (Hist.quantile h 0.5);
  let g = Hist.create ~lo:1e-6 ~hi:1e4 () in
  Hist.add g 1e6;
  Alcotest.(check (float 1e-3)) "huge sample clamped to max" 1e6
    (Hist.quantile g 1.0)

let test_rejects_bad_input () =
  let h = Hist.create () in
  Alcotest.check_raises "negative raises" (Invalid_argument "Hist.add")
    (fun () -> Hist.add h (-1.0));
  Alcotest.check_raises "infinity raises" (Invalid_argument "Hist.add")
    (fun () -> Hist.add h infinity);
  Alcotest.check_raises "empty range" (Invalid_argument "Hist.create: range")
    (fun () -> ignore (Hist.create ~lo:1.0 ~hi:1.0 ()))

let test_merge_param_mismatch () =
  let a = Hist.create () and b = Hist.create ~hi:100.0 () in
  Alcotest.check_raises "mismatch raises"
    (Invalid_argument "Hist.merge: parameter mismatch") (fun () ->
      ignore (Hist.merge a b))

let lognormal_gen =
  (* log-uniform over ~[1e-3, 1e3]: spans six decades, the shape queueing
     delays and lookup latencies actually have *)
  QCheck.Gen.(
    array_size (int_range 1 400)
      (map (fun u -> Float.exp ((u -. 0.5) *. 13.8)) (float_bound_exclusive 1.0)))

let arb_samples = QCheck.make ~print:QCheck.Print.(array string_of_float) lognormal_gen

let qcheck_quantile_accuracy =
  QCheck.Test.make ~name:"quantiles within alpha of exact" ~count:200
    arb_samples (fun xs ->
      let h = Hist.create ~lo:1e-6 ~hi:1e4 () in
      Array.iter (Hist.add h) xs;
      let sorted = Array.copy xs in
      Array.sort compare sorted;
      List.for_all
        (fun q ->
          let est = Hist.quantile h q in
          (* the rank the walk lands on can sit either side of the exact
             index when buckets hold several samples: accept the better
             of the two neighbouring order statistics *)
          let lo_i = exact_at sorted q in
          let hi_i =
            let n = Array.length sorted in
            let i = int_of_float (ceil (q *. float_of_int (n - 1))) in
            sorted.(max 0 (min (n - 1) i))
          in
          let err = Float.min (rel_err est lo_i) (rel_err est hi_i) in
          err <= Hist.alpha +. 1e-9)
        [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ])

let qcheck_merge_equals_union =
  QCheck.Test.make ~name:"merge == histogram of concatenation" ~count:100
    (QCheck.pair arb_samples arb_samples) (fun (xs, ys) ->
      let mk arr =
        let h = Hist.create () in
        Array.iter (Hist.add h) arr;
        h
      in
      let merged = Hist.merge (mk xs) (mk ys) in
      let union = mk (Array.append xs ys) in
      Hist.count merged = Hist.count union
      && List.for_all
           (fun q ->
             let a = Hist.quantile merged q and b = Hist.quantile union q in
             Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b))
           [ 0.0; 0.5; 0.9; 0.99; 1.0 ])

let test_merge_associative () =
  let mk seed n =
    let rng = Repro_util.Rng.create seed in
    let h = Hist.create () in
    for _ = 1 to n do
      Hist.add h (0.001 +. Repro_util.Rng.float rng 10.0)
    done;
    h
  in
  let a = mk 1 100 and b = mk 2 250 and c = mk 3 40 in
  let l = Hist.merge (Hist.merge a b) c and r = Hist.merge a (Hist.merge b c) in
  Alcotest.(check int) "counts" (Hist.count l) (Hist.count r);
  Alcotest.(check (float 1e-12)) "sum" (Hist.sum l) (Hist.sum r);
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "q=%.2f" q)
        (Hist.quantile l q) (Hist.quantile r q))
    [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]

let test_summary_json () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 1.0; 2.0; 3.0 ];
  let j = Hist.summary_json h in
  let get k = Option.bind (Repro_obs.Json.member k j) Repro_obs.Json.to_float in
  Alcotest.(check (option (float 1e-9))) "count" (Some 3.0) (get "count");
  Alcotest.(check (option (float 1e-9))) "mean" (Some 2.0) (get "mean");
  Alcotest.(check (option (float 1e-9))) "min" (Some 1.0) (get "min");
  Alcotest.(check (option (float 1e-9))) "max" (Some 3.0) (get "max")

let suite =
  [
    ( "hist",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "single value" `Quick test_single_value;
        Alcotest.test_case "out-of-range clamped" `Quick test_out_of_range_clamped;
        Alcotest.test_case "rejects bad input" `Quick test_rejects_bad_input;
        Alcotest.test_case "merge param mismatch" `Quick test_merge_param_mismatch;
        Alcotest.test_case "merge associative" `Quick test_merge_associative;
        Alcotest.test_case "summary json" `Quick test_summary_json;
        QCheck_alcotest.to_alcotest qcheck_quantile_accuracy;
        QCheck_alcotest.to_alcotest qcheck_merge_equals_union;
      ] );
  ]
