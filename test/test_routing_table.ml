module Nodeid = Pastry.Nodeid
module Peer = Pastry.Peer
module Rt = Pastry.Routing_table
module Rng = Repro_util.Rng

let hexid prefix =
  Nodeid.of_hex (prefix ^ String.concat "" (List.init (32 - String.length prefix) (fun _ -> "0")))

let me = hexid "a0"
let table () = Rt.create ~b:4 ~me

let test_dimensions () =
  let t = table () in
  Alcotest.(check int) "rows" 32 (Rt.rows t);
  Alcotest.(check int) "cols" 16 (Rt.cols t);
  Alcotest.(check int) "empty" 0 (Rt.count t)

let test_slot_of () =
  let t = table () in
  (* me = a0...; id b0... differs in first digit -> row 0, col 0xb *)
  Alcotest.(check (option (pair int int))) "row0" (Some (0, 0xb)) (Rt.slot_of t (hexid "b0"));
  (* id a5... shares 1 digit -> row 1, col 5 *)
  Alcotest.(check (option (pair int int))) "row1" (Some (1, 5)) (Rt.slot_of t (hexid "a5"));
  Alcotest.(check (option (pair int int))) "self" None (Rt.slot_of t me)

let test_consider_install_and_pns () =
  let t = table () in
  let p1 = Peer.make (hexid "b0") 1 in
  Alcotest.(check bool) "install" true (Rt.consider t p1 ~rtt:0.1);
  Alcotest.(check int) "count" 1 (Rt.count t);
  (* same slot, farther candidate: rejected *)
  let p2 = Peer.make (hexid "b1") 2 in
  Alcotest.(check bool) "farther rejected" false (Rt.consider t p2 ~rtt:0.2);
  (* same slot, closer candidate: replaces *)
  Alcotest.(check bool) "closer replaces" true (Rt.consider t p2 ~rtt:0.05);
  (match Rt.get t 0 0xb with
  | Some e -> Alcotest.(check int) "occupant" 2 e.Rt.peer.Peer.addr
  | None -> Alcotest.fail "slot empty");
  Alcotest.(check int) "still one entry" 1 (Rt.count t)

let test_consider_same_id_update () =
  let t = table () in
  let p = Peer.make (hexid "b0") 1 in
  ignore (Rt.consider t p ~rtt:0.1);
  Alcotest.(check bool) "same id better rtt" true (Rt.consider t p ~rtt:0.05);
  Alcotest.(check bool) "same id worse rtt" false (Rt.consider t p ~rtt:0.5)

let test_set_unconditional () =
  let t = table () in
  ignore (Rt.consider t (Peer.make (hexid "b0") 1) ~rtt:0.01);
  Alcotest.(check bool) "set overwrites" true (Rt.set t (Peer.make (hexid "b1") 2) ~rtt:9.9);
  match Rt.get t 0 0xb with
  | Some e -> Alcotest.(check int) "new occupant" 2 e.Rt.peer.Peer.addr
  | None -> Alcotest.fail "slot empty"

let test_remove_exact_id () =
  let t = table () in
  ignore (Rt.consider t (Peer.make (hexid "b0") 1) ~rtt:0.1);
  (* removing a different id that maps to the same slot must not evict *)
  Alcotest.(check bool) "other id" false (Rt.remove t (hexid "b1"));
  Alcotest.(check int) "kept" 1 (Rt.count t);
  Alcotest.(check bool) "exact id" true (Rt.remove t (hexid "b0"));
  Alcotest.(check int) "empty" 0 (Rt.count t)

let test_find () =
  let t = table () in
  ignore (Rt.consider t (Peer.make (hexid "b0") 1) ~rtt:0.1);
  Alcotest.(check bool) "found" true (Rt.find t (hexid "b0") <> None);
  Alcotest.(check bool) "same slot, different id" true (Rt.find t (hexid "b1") = None);
  Alcotest.(check bool) "self" true (Rt.find t me = None)

let test_rows_and_entries () =
  let t = table () in
  ignore (Rt.consider t (Peer.make (hexid "b0") 1) ~rtt:0.1);
  ignore (Rt.consider t (Peer.make (hexid "c0") 2) ~rtt:0.1);
  ignore (Rt.consider t (Peer.make (hexid "a5") 3) ~rtt:0.1);
  Alcotest.(check int) "row 0 has 2" 2 (List.length (Rt.row_entries t 0));
  Alcotest.(check int) "row 1 has 1" 1 (List.length (Rt.row_entries t 1));
  Alcotest.(check int) "entries" 3 (List.length (Rt.entries t));
  Alcotest.(check int) "peers" 3 (List.length (Rt.peers t))

let test_update_rtt () =
  let t = table () in
  ignore (Rt.consider t (Peer.make (hexid "b0") 1) ~rtt:0.5);
  Rt.update_rtt t (hexid "b0") 0.25;
  (match Rt.find t (hexid "b0") with
  | Some e -> Alcotest.(check (float 1e-9)) "updated" 0.25 e.Rt.rtt
  | None -> Alcotest.fail "missing");
  (* update for an id not installed is a no-op *)
  Rt.update_rtt t (hexid "b1") 0.1;
  Alcotest.(check int) "count" 1 (Rt.count t)

let qcheck_slot_matches_prefix =
  QCheck.Test.make ~name:"slot row = shared prefix length" ~count:300 QCheck.int
    (fun seed ->
      let rng = Rng.create seed in
      let me = Nodeid.random rng in
      let t = Rt.create ~b:4 ~me in
      let id = Nodeid.random rng in
      match Rt.slot_of t id with
      | None -> Nodeid.equal id me
      | Some (r, c) ->
          r = Nodeid.shared_prefix_length ~b:4 me id && c = Nodeid.digit ~b:4 id r
          && c <> Nodeid.digit ~b:4 me r)

let qcheck_all_b_values =
  QCheck.Test.make ~name:"tables work for b in 1..8" ~count:50 QCheck.int (fun seed ->
      let rng = Rng.create seed in
      List.for_all
        (fun b ->
          let me = Nodeid.random rng in
          let t = Rt.create ~b ~me in
          let ok = ref true in
          for k = 0 to 20 do
            let p = Peer.make (Nodeid.random rng) k in
            ignore (Rt.consider t p ~rtt:0.1)
          done;
          List.iter
            (fun (e : Rt.entry) ->
              match Rt.slot_of t e.Rt.peer.Peer.id with
              | Some (r, c) -> (
                  match Rt.get t r c with
                  | Some e' -> if not (Peer.equal e.Rt.peer e'.Rt.peer) then ok := false
                  | None -> ok := false)
              | None -> ok := false)
            (Rt.entries t);
          !ok)
        [ 1; 2; 3; 4; 5; 8 ])

(* Random consider/set/remove/update_rtt sequences against a reference
   model: the same slots in a plain matrix, every query a scan of all
   rows and columns. Half the ids share at least 28 digits with [me], so
   the top rows fill and empty again: a bound on the occupied rows
   lowered past a non-empty row would silently drop entries from the
   walks. *)
let qcheck_matches_full_scan_model =
  QCheck.Test.make ~name:"matches a full-scan reference model" ~count:300 QCheck.int
    (fun seed ->
      let rng = Rng.create seed in
      let me = Nodeid.random rng in
      let me_hex = Nodeid.to_hex me and hex = "0123456789abcdef" in
      (* an id sharing exactly [p] leading digits with [me] *)
      let id_sharing p =
        let own = String.index hex me_hex.[p] in
        Nodeid.of_hex
          (String.init 32 (fun i ->
               if i < p then me_hex.[i]
               else if i = p then hex.[(own + 1 + Rng.int rng 15) land 15]
               else hex.[Rng.int rng 16]))
      in
      let pool =
        Array.init 24 (fun k ->
            let p = if Rng.bool rng then 28 + Rng.int rng 4 else Rng.int rng 32 in
            Peer.make (id_sharing p) k)
      in
      let rtts = [| 0.01; 0.05; 0.1; 0.2; infinity |] in
      let t = Rt.create ~b:4 ~me in
      let rows = Rt.rows t and cols = Rt.cols t in
      let model = Array.make_matrix rows cols None in
      let scan f =
        let acc = ref [] in
        for r = rows - 1 downto 0 do
          for c = cols - 1 downto 0 do
            match model.(r).(c) with
            | Some e when f r e -> acc := e :: !acc
            | Some _ | None -> ()
          done
        done;
        !acc
      in
      let holding id = scan (fun _ (e : Rt.entry) -> Nodeid.equal e.Rt.peer.Peer.id id) in
      let slot (p : Peer.t) =
        let r = Nodeid.shared_prefix_length ~b:4 me p.Peer.id in
        (r, Nodeid.digit ~b:4 p.Peer.id r)
      in
      let expect what b =
        if not b then QCheck.Test.fail_reportf "%s differs from the model" what
      in
      for _ = 1 to 80 do
        let k = Rng.int rng (Array.length pool) in
        let rtt = rtts.(Rng.int rng (Array.length rtts)) in
        let p = pool.(k) in
        (match Rng.int rng 6 with
        | 0 | 1 ->
            let r, c = slot p in
            let changed =
              match model.(r).(c) with
              | Some (e : Rt.entry) when rtt >= e.Rt.rtt -> false
              | Some _ | None ->
                  model.(r).(c) <- Some { Rt.peer = p; rtt };
                  true
            in
            expect "consider" (Rt.consider t p ~rtt = changed)
        | 2 ->
            let r, c = slot p in
            model.(r).(c) <- Some { Rt.peer = p; rtt };
            expect "set" (Rt.set t p ~rtt)
        | 3 | 4 ->
            let present = holding p.Peer.id <> [] in
            let r, c = slot p in
            if present then model.(r).(c) <- None;
            expect "remove" (Rt.remove t p.Peer.id = present)
        | _ ->
            let r, c = slot p in
            (match holding p.Peer.id with
            | [ e ] -> model.(r).(c) <- Some { e with Rt.rtt }
            | _ -> ());
            Rt.update_rtt t p.Peer.id rtt);
        let all = scan (fun _ _ -> true) in
        let top = List.fold_left (fun m e -> max m (fst (slot e.Rt.peer) + 1)) 0 all in
        let walked = ref [] in
        Rt.iter (fun e -> walked := e :: !walked) t;
        expect "entries" (Rt.entries t = all);
        expect "peers" (Rt.peers t = List.map (fun e -> e.Rt.peer) all);
        expect "iter order" (List.rev !walked = all);
        expect "count" (Rt.count t = List.length all);
        expect "used_rows" (Rt.used_rows t = top);
        for r = 0 to rows - 1 do
          expect "row_entries" (Rt.row_entries t r = scan (fun r' _ -> r' = r));
          for c = 0 to cols - 1 do
            expect "get" (Rt.get t r c = model.(r).(c))
          done
        done;
        Array.iter
          (fun (q : Peer.t) ->
            expect "find"
              (Rt.find t q.Peer.id = match holding q.Peer.id with [ e ] -> Some e | _ -> None))
          pool
      done;
      true)

let suite =
  [
    ( "routing-table",
      [
        Alcotest.test_case "dimensions" `Quick test_dimensions;
        Alcotest.test_case "slot_of" `Quick test_slot_of;
        Alcotest.test_case "consider: install and PNS replace" `Quick
          test_consider_install_and_pns;
        Alcotest.test_case "consider: same id rtt update" `Quick test_consider_same_id_update;
        Alcotest.test_case "set is unconditional" `Quick test_set_unconditional;
        Alcotest.test_case "remove only exact id" `Quick test_remove_exact_id;
        Alcotest.test_case "find" `Quick test_find;
        Alcotest.test_case "rows and entries" `Quick test_rows_and_entries;
        Alcotest.test_case "update rtt" `Quick test_update_rtt;
        QCheck_alcotest.to_alcotest qcheck_slot_matches_prefix;
        QCheck_alcotest.to_alcotest qcheck_all_b_values;
        QCheck_alcotest.to_alcotest qcheck_matches_full_scan_model;
      ] );
  ]
