module Series = Repro_util.Series

let test_window_assignment () =
  let s = Series.create ~window:10.0 in
  Series.add s ~time:1.0 2.0;
  Series.add s ~time:9.9 4.0;
  Series.add s ~time:10.0 6.0;
  let sums = Series.sums s in
  Alcotest.(check int) "two windows" 2 (Array.length sums);
  Alcotest.(check (float 1e-9)) "w0 mid" 5.0 (fst sums.(0));
  Alcotest.(check (float 1e-9)) "w0 sum" 6.0 (snd sums.(0));
  Alcotest.(check (float 1e-9)) "w1 mid" 15.0 (fst sums.(1));
  Alcotest.(check (float 1e-9)) "w1 sum" 6.0 (snd sums.(1))

let test_means_and_rates () =
  let s = Series.create ~window:10.0 in
  Series.add s ~time:0.0 2.0;
  Series.add s ~time:5.0 4.0;
  let means = Series.means s in
  Alcotest.(check (float 1e-9)) "mean" 3.0 (snd means.(0));
  (* a window's rate is its sum over the window length *)
  Alcotest.(check (float 1e-9)) "rate" 0.6 (snd (Series.sums s).(0) /. 10.0)

let test_count () =
  let s = Series.create ~window:1.0 in
  Series.count s ~time:0.1;
  Series.count s ~time:0.2;
  Alcotest.(check (array (pair (float 1e-9) (float 1e-9)))) "sums" [| (0.5, 2.0) |]
    (Series.sums s);
  Alcotest.(check (array (pair (float 1e-9) (float 1e-9)))) "means" [| (0.5, 1.0) |]
    (Series.means s)

let test_empty () =
  let s = Series.create ~window:5.0 in
  Alcotest.(check int) "no windows" 0 (Array.length (Series.sums s));
  Alcotest.(check int) "no means" 0 (Array.length (Series.means s))

let test_sorted_output () =
  let s = Series.create ~window:1.0 in
  Series.add s ~time:50.0 1.0;
  Series.add s ~time:3.0 1.0;
  Series.add s ~time:20.0 1.0;
  let sums = Series.sums s in
  Alcotest.(check bool) "time ordered" true
    (fst sums.(0) < fst sums.(1) && fst sums.(1) < fst sums.(2))

let test_invalid_window () =
  Alcotest.check_raises "zero window" (Invalid_argument "Series.create") (fun () ->
      ignore (Series.create ~window:0.0));
  let s = Series.create ~window:1.0 in
  List.iter
    (fun time ->
      Alcotest.check_raises "bad time" (Invalid_argument "Series.add") (fun () ->
          Series.add s ~time 1.0))
    [ -1.0; infinity; nan ];
  Alcotest.(check int) "nothing recorded" 0 (Series.length s)

(* times that jump back and forth between windows, and past the arrays'
   current size, must still land in the right windows; the per-index
   reads agree with the naive cells too *)
let qcheck_matches_naive =
  QCheck.Test.make ~name:"sums/means/total match naive recomputation" ~count:200
    QCheck.(list (pair (float_range 0.0 500.0) (float_range (-5.0) 5.0)))
    (fun samples ->
      let window = 5.0 in
      let s = Series.create ~window in
      List.iter (fun (time, v) -> Series.add s ~time v) samples;
      let cells = Hashtbl.create 16 in
      List.iter
        (fun (time, v) ->
          let idx = int_of_float (floor (time /. window)) in
          let sum, n = Option.value (Hashtbl.find_opt cells idx) ~default:(0.0, 0) in
          Hashtbl.replace cells idx (sum +. v, n + 1))
        samples;
      let naive =
        Hashtbl.fold (fun idx c acc -> (idx, c) :: acc) cells [] |> List.sort compare
      in
      let mid idx = (float_of_int idx +. 0.5) *. window in
      Series.sums s = Array.of_list (List.map (fun (i, (sum, _)) -> (mid i, sum)) naive)
      && Series.means s
         = Array.of_list (List.map (fun (i, (sum, n)) -> (mid i, sum /. float_of_int n)) naive)
      && Series.length s = (match List.rev naive with (i, _) :: _ -> i + 1 | [] -> 0)
      && List.for_all
           (fun w ->
             let sum, n = Option.value (Hashtbl.find_opt cells w) ~default:(0.0, 0) in
             Series.sum s w = sum && Series.samples s w = n)
           (List.init (Series.length s + 2) (fun w -> w - 1))
      &&
      let total = Array.fold_left (fun acc (_, v) -> acc +. v) 0.0 (Series.sums s) in
      let naive_total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 samples in
      Float.abs (total -. naive_total) <= 1e-9 *. (1.0 +. Float.abs naive_total))

(* [integrate] splits at window edges and adds one sample per window it
   overlaps *)
let test_integrate () =
  let s = Series.create ~window:10.0 in
  Series.integrate s ~from:5.0 ~until:27.0 2.0;
  Alcotest.(check (array (pair (float 0.0) (float 0.0)))) "pieces"
    [| (5.0, 10.0); (15.0, 20.0); (25.0, 14.0) |] (Series.sums s);
  Alcotest.(check (list int)) "one sample per window" [ 1; 1; 1 ]
    (List.init 3 (Series.samples s));
  Series.integrate s ~from:27.0 ~until:27.0 5.0;
  Series.integrate s ~from:30.0 ~until:20.0 5.0;
  Alcotest.(check int) "empty intervals add nothing" 3 (Series.length s);
  Series.integrate s ~from:27.0 ~until:29.0 0.0;
  Alcotest.(check int) "a zero level still marks the window" 2 (Series.samples s 2);
  Alcotest.(check (float 0.0)) "... and adds nothing" 14.0 (Series.sum s 2)

let suite =
  [
    ( "series",
      [
        Alcotest.test_case "window assignment" `Quick test_window_assignment;
        Alcotest.test_case "means and rates" `Quick test_means_and_rates;
        Alcotest.test_case "count" `Quick test_count;
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "sorted output" `Quick test_sorted_output;
        Alcotest.test_case "invalid window" `Quick test_invalid_window;
        QCheck_alcotest.to_alcotest qcheck_matches_naive;
        Alcotest.test_case "integrate" `Quick test_integrate;
      ] );
  ]
