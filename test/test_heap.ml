module Heap = Repro_util.Heap
module Rng = Repro_util.Rng

let drain h =
  let rec go acc = if Heap.is_empty h then List.rev acc else go (Heap.pop h :: acc) in
  go []

let test_basic () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  List.iter (fun k -> Heap.push h (float_of_int k) k) [ 3; 1; 2 ];
  Alcotest.(check int) "size" 3 (Heap.size h);
  Alcotest.(check (float 0.0)) "min key" 1.0 (Heap.min_key h);
  Alcotest.(check int) "pop 1" 1 (Heap.pop h);
  Alcotest.(check int) "pop 2" 2 (Heap.pop h);
  Alcotest.(check int) "pop 3" 3 (Heap.pop h);
  Alcotest.(check bool) "drained" true (Heap.is_empty h);
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop: empty") (fun () ->
      ignore (Heap.pop h));
  Alcotest.check_raises "min_key empty" (Invalid_argument "Heap.min_key: empty") (fun () ->
      ignore (Heap.min_key h))

let test_peek_nondestructive () =
  let h = Heap.create () in
  Heap.push h 7.0 "seven";
  Alcotest.(check (float 0.0)) "min key" 7.0 (Heap.min_key h);
  Alcotest.(check string) "min value" "seven" (Heap.min_value h);
  Alcotest.(check int) "size unchanged" 1 (Heap.size h)

let test_fifo_ties () =
  (* equal keys: insertion order must be preserved *)
  let h = Heap.create () in
  for i = 0 to 19 do
    Heap.push h 0.0 i
  done;
  Alcotest.(check (list int)) "fifo order" (List.init 20 Fun.id) (drain h)

let test_mixed_ties () =
  let h = Heap.create () in
  Heap.push h 1.0 "a";
  Heap.push h 0.0 "b";
  Heap.push h 1.0 "c";
  Heap.push h (-0.0) "d";
  Alcotest.(check (list string)) "keys then fifo, -0 = 0" [ "b"; "d"; "a"; "c" ] (drain h)

let test_interleaved () =
  let h = Heap.create () in
  let rng = Rng.create 99 in
  let reference = ref [] in
  for _ = 1 to 2000 do
    if Rng.bool rng || !reference = [] then begin
      let v = Rng.int rng 1000 in
      Heap.push h (float_of_int v) v;
      reference := List.sort compare (v :: !reference)
    end
    else begin
      match !reference with
      | r :: rest ->
          Alcotest.(check int) "pop is min" r (Heap.pop h);
          reference := rest
      | [] -> Alcotest.fail "mismatch"
    end
  done

let test_nan_rejected () =
  let h = Heap.create () in
  Heap.push h 1.0 ();
  Alcotest.check_raises "nan key" (Invalid_argument "Heap.push: NaN key") (fun () ->
      Heap.push h nan ());
  Alcotest.(check int) "heap untouched" 1 (Heap.size h)

let qcheck_sorted_drain =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create () in
      List.iter (fun x -> Heap.push h (float_of_int x) x) xs;
      drain h = List.sort compare xs)

(* Reference model: a list of (key, insertion index, value) kept in
   insertion order; its minimum under (key, insertion) is what a stable
   sort by key puts first. Keys come from a small set with many
   duplicates, both zeros and infinity. *)
let keys = [| 0.0; -0.0; 1.0; 1.5; 2.0; 3.0; infinity; -1.0; 1e-300 |]

let qcheck_stable_order =
  QCheck.Test.make ~name:"pops in (key, insertion) order" ~count:300
    QCheck.(list_of_size Gen.(int_bound 300) (option (int_bound (Array.length keys - 1))))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] and n = ref 0 and ok = ref true in
      let model_pop () =
        match List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (List.rev !model) with
        | [] -> None
        | (k, i) :: _ ->
            model := List.filter (fun (_, j) -> j <> i) !model;
            Some (k, i)
      in
      let check_pop () =
        match model_pop () with
        | None -> ok := !ok && Heap.is_empty h
        | Some (k, i) ->
            let hk = Heap.min_key h in
            let hi = Heap.pop h in
            ok := !ok && hk = k && hi = i
      in
      List.iter
        (function
          | Some ki ->
              (* Float.compare orders -0.0 before 0.0; the heap treats
                 them as equal keys, so the model stores both as 0.0 *)
              let k = keys.(ki) +. 0.0 in
              Heap.push h keys.(ki) !n;
              model := (k, !n) :: !model;
              incr n
          | None -> check_pop ())
        ops;
      while !model <> [] do
        check_pop ()
      done;
      !ok && Heap.is_empty h)

let suite =
  [
    ( "heap",
      [
        Alcotest.test_case "basic order" `Quick test_basic;
        Alcotest.test_case "peek non-destructive" `Quick test_peek_nondestructive;
        Alcotest.test_case "FIFO tie-break" `Quick test_fifo_ties;
        Alcotest.test_case "mixed keys and ties" `Quick test_mixed_ties;
        Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
        Alcotest.test_case "NaN key rejected" `Quick test_nan_rejected;
        QCheck_alcotest.to_alcotest qcheck_sorted_drain;
        QCheck_alcotest.to_alcotest qcheck_stable_order;
      ] );
  ]
