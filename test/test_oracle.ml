module Oracle = Harness.Oracle
module Nodeid = Pastry.Nodeid
module Rng = Repro_util.Rng

let test_empty () =
  let o = Oracle.create () in
  Alcotest.(check int) "size" 0 (Oracle.size o);
  Alcotest.(check bool) "closest none" true (Oracle.closest o (Nodeid.of_int 5) = None)

let test_add_remove () =
  let o = Oracle.create () in
  Oracle.add o (Nodeid.of_int 10) 1;
  Oracle.add o (Nodeid.of_int 20) 2;
  Alcotest.(check int) "size" 2 (Oracle.size o);
  Alcotest.(check bool) "mem" true (Oracle.mem o (Nodeid.of_int 10));
  Oracle.remove o (Nodeid.of_int 10);
  Alcotest.(check bool) "removed" false (Oracle.mem o (Nodeid.of_int 10));
  Alcotest.(check int) "size" 1 (Oracle.size o)

let test_closest_simple () =
  let o = Oracle.create () in
  Oracle.add o (Nodeid.of_int 10) 1;
  Oracle.add o (Nodeid.of_int 100) 2;
  (match Oracle.closest o (Nodeid.of_int 12) with
  | Some (_, addr) -> Alcotest.(check int) "nearest" 1 addr
  | None -> Alcotest.fail "expected owner");
  match Oracle.closest o (Nodeid.of_int 90) with
  | Some (_, addr) -> Alcotest.(check int) "nearest" 2 addr
  | None -> Alcotest.fail "expected owner"

let test_closest_wraps () =
  let o = Oracle.create () in
  (* nodes near both ends of the id space; a key at the very top should
     wrap to the low node if it is ring-closer *)
  Oracle.add o (Nodeid.of_int 5) 1;
  let high = Nodeid.sub Nodeid.zero (Nodeid.of_int 100) in
  Oracle.add o high 2;
  (* key = -2 mod 2^128: distance 7 to node 5 (wrapping), 98 to high *)
  let key = Nodeid.sub Nodeid.zero (Nodeid.of_int 2) in
  match Oracle.closest o key with
  | Some (_, addr) -> Alcotest.(check int) "wrapped" 1 addr
  | None -> Alcotest.fail "expected owner"

let test_closest_tiebreak () =
  let o = Oracle.create () in
  Oracle.add o (Nodeid.of_int 8) 1;
  Oracle.add o (Nodeid.of_int 12) 2;
  (* key 10 equidistant: numerically smaller id (8) wins, matching
     Nodeid.closer *)
  match Oracle.closest o (Nodeid.of_int 10) with
  | Some (_, addr) -> Alcotest.(check int) "tie to smaller id" 1 addr
  | None -> Alcotest.fail "expected owner"

let qcheck_matches_bruteforce =
  QCheck.Test.make ~name:"oracle matches brute force" ~count:300 QCheck.int (fun seed ->
      let rng = Rng.create seed in
      let o = Oracle.create () in
      let n = 1 + Rng.int rng 20 in
      let ids = List.init n (fun k -> (Nodeid.random rng, k)) in
      List.iter (fun (id, a) -> Oracle.add o id a) ids;
      let key = Nodeid.random rng in
      match Oracle.closest o key with
      | None -> false
      | Some (best, _) ->
          List.for_all
            (fun (id, _) -> Nodeid.equal id best || not (Nodeid.closer ~key id best))
            ids)

(* ------------------------------------------------------- ring audit *)

let ring3 () =
  let o = Oracle.create () in
  Oracle.add o (Nodeid.of_int 10) 1;
  Oracle.add o (Nodeid.of_int 20) 2;
  Oracle.add o (Nodeid.of_int 30) 3;
  o

(* the true (left, right) = (predecessor, successor) neighbours of the
   sorted ring 10 -> 20 -> 30 (with wrap) *)
let truth = function
  | 1 -> Some (Some (Nodeid.of_int 30), Some (Nodeid.of_int 20))
  | 2 -> Some (Some (Nodeid.of_int 10), Some (Nodeid.of_int 30))
  | 3 -> Some (Some (Nodeid.of_int 20), Some (Nodeid.of_int 10))
  | _ -> None

let test_ring_audit_consistent () =
  let a = Oracle.ring_audit (ring3 ()) ~neighbors:truth in
  Alcotest.(check int) "audited" 3 a.Oracle.audited;
  Alcotest.(check int) "left all ok" 3 a.Oracle.left_ok;
  Alcotest.(check int) "right all ok" 3 a.Oracle.right_ok;
  Alcotest.(check (float 1e-9)) "full agreement" 1.0 a.Oracle.agreement

let test_ring_audit_disagreement () =
  (* node 2 is confused about its left neighbour *)
  let lie addr =
    if addr = 2 then Some (Some (Nodeid.of_int 30), Some (Nodeid.of_int 30))
    else truth addr
  in
  let a = Oracle.ring_audit (ring3 ()) ~neighbors:lie in
  Alcotest.(check int) "left wrong once" 2 a.Oracle.left_ok;
  Alcotest.(check int) "right intact" 3 a.Oracle.right_ok;
  Alcotest.(check (float 1e-9)) "5/6 agreement" (5.0 /. 6.0) a.Oracle.agreement

let test_ring_audit_skips () =
  (* an unauditable node (e.g. not yet active) is excluded, not failed *)
  let partial addr = if addr = 3 then None else truth addr in
  let a = Oracle.ring_audit (ring3 ()) ~neighbors:partial in
  Alcotest.(check int) "audited" 2 a.Oracle.audited;
  Alcotest.(check (float 1e-9)) "agreement over audited" 1.0 a.Oracle.agreement

let test_ring_audit_singleton_and_empty () =
  let o = Oracle.create () in
  let a = Oracle.ring_audit o ~neighbors:(fun _ -> Some (None, None)) in
  Alcotest.(check int) "empty audits nothing" 0 a.Oracle.audited;
  Alcotest.(check (float 1e-9)) "vacuous agreement" 1.0 a.Oracle.agreement;
  Oracle.add o (Nodeid.of_int 10) 1;
  (* a singleton ring has no neighbours; claiming one is a disagreement *)
  let a1 = Oracle.ring_audit o ~neighbors:(fun _ -> Some (None, None)) in
  Alcotest.(check (float 1e-9)) "singleton agrees on None" 1.0 a1.Oracle.agreement;
  let a2 =
    Oracle.ring_audit o ~neighbors:(fun _ ->
        Some (Some (Nodeid.of_int 99), None))
  in
  Alcotest.(check (float 1e-9)) "phantom neighbour flagged" 0.5 a2.Oracle.agreement

let qcheck_ring_audit_truth =
  QCheck.Test.make ~name:"ring audit accepts ground truth" ~count:200 QCheck.int
    (fun seed ->
      let rng = Rng.create seed in
      let o = Oracle.create () in
      let n = 2 + Rng.int rng 20 in
      let ids = Array.init n (fun k -> (Nodeid.random rng, k)) in
      Array.iter (fun (id, a) -> Oracle.add o id a) ids;
      (* ground truth by brute force over the sorted id list *)
      let sorted = Array.map fst ids in
      Array.sort Nodeid.compare sorted;
      let index_of id =
        let r = ref (-1) in
        Array.iteri (fun i x -> if Nodeid.equal x id then r := i) sorted;
        !r
      in
      let neighbors addr =
        let id = fst ids.(addr) in
        let i = index_of id in
        Some
          ( Some sorted.((i + n - 1) mod n),
            Some sorted.((i + 1) mod n) )
      in
      let a = Oracle.ring_audit o ~neighbors in
      a.Oracle.audited = n && a.Oracle.agreement = 1.0)

(* The sorted-array oracle against a list model, under random adds,
   re-adds (a new address) and removes (some of absent ids) over a small
   id pool. Pools of one to three ids keep the population at 0, 1 or 2
   much of the time; other ids share a long prefix with one base id, and
   so do the keys. After every step: size, membership, the owner of a key
   (the argmin under [Nodeid.closer]) and a ring audit of random claims
   against the model's sorted list. *)
let qcheck_reference_model =
  QCheck.Test.make ~name:"oracle matches a list model" ~count:200 QCheck.int (fun seed ->
      let rng = Rng.create seed in
      let base = Nodeid.random rng in
      let near () =
        if Rng.bool rng then Nodeid.add base (Nodeid.of_int (Rng.int rng 1000))
        else Nodeid.sub base (Nodeid.of_int (Rng.int rng 1000))
      in
      let pool_size = if Rng.bool rng then 1 + Rng.int rng 3 else 4 + Rng.int rng 40 in
      let pool =
        Array.init pool_size (fun _ ->
            if Rng.int rng 3 = 0 then Nodeid.random rng else near ())
      in
      let o = Oracle.create () and model = ref [] in
      let without id = List.filter (fun (i, _) -> not (Nodeid.equal i id)) !model in
      let same_owner a b =
        match (a, b) with
        | None, None -> true
        | Some (i, x), Some (j, y) -> Nodeid.equal i j && x = y
        | Some _, None | None, Some _ -> false
      in
      let step k =
        let id = Rng.pick rng pool in
        if Rng.int rng 3 < 2 then begin
          Oracle.add o id k;
          model := (id, k) :: without id
        end
        else begin
          Oracle.remove o id;
          model := without id
        end;
        let key =
          match Rng.int rng 3 with
          | 0 -> Nodeid.random rng
          | 1 -> Rng.pick rng pool
          | _ -> near ()
        in
        let owner =
          List.fold_left
            (fun best (i, a) ->
              match best with
              | Some (b, _) when not (Nodeid.closer ~key i b) -> best
              | Some _ | None -> Some (i, a))
            None !model
        in
        (* ring audit: each member claims its true neighbour, some other
           pool id or none, or is skipped *)
        let sorted =
          Array.of_list (List.sort (fun (a, _) (b, _) -> Nodeid.compare a b) !model)
        in
        let n = Array.length sorted in
        let truth i = if n <= 1 then None else Some (fst sorted.((i + n) mod n)) in
        let claim i =
          match Rng.int rng 4 with
          | 0 -> None
          | 1 -> Some (Rng.pick rng pool)
          | _ -> truth i
        in
        let claims =
          Array.mapi
            (fun i (_, a) ->
              (a, if Rng.int rng 5 = 0 then None else Some (claim (i - 1), claim (i + 1))))
            sorted
          |> Array.to_list
        in
        let eq a b =
          match (a, b) with
          | None, None -> true
          | Some x, Some y -> Nodeid.equal x y
          | Some _, None | None, Some _ -> false
        in
        let audited = ref 0 and left_ok = ref 0 and right_ok = ref 0 in
        List.iteri
          (fun i (_, c) ->
            match c with
            | None -> ()
            | Some (l, r) ->
                incr audited;
                if eq l (truth (i - 1)) then incr left_ok;
                if eq r (truth (i + 1)) then incr right_ok)
          claims;
        let a = Oracle.ring_audit o ~neighbors:(fun addr -> List.assoc addr claims) in
        let member id = List.exists (fun (i, _) -> Nodeid.equal i id) !model in
        Oracle.size o = n
        && Array.for_all (fun id -> Oracle.mem o id = member id) pool
        && same_owner (Oracle.closest o key) owner
        && a.Oracle.audited = !audited
        && a.Oracle.left_ok = !left_ok
        && a.Oracle.right_ok = !right_ok
      in
      List.for_all step (List.init 150 Fun.id))

let suite =
  [
    ( "oracle",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "add/remove" `Quick test_add_remove;
        Alcotest.test_case "closest simple" `Quick test_closest_simple;
        Alcotest.test_case "closest wraps" `Quick test_closest_wraps;
        Alcotest.test_case "closest tie-break" `Quick test_closest_tiebreak;
        QCheck_alcotest.to_alcotest qcheck_matches_bruteforce;
        Alcotest.test_case "ring audit consistent" `Quick test_ring_audit_consistent;
        Alcotest.test_case "ring audit disagreement" `Quick test_ring_audit_disagreement;
        Alcotest.test_case "ring audit skips unauditable" `Quick test_ring_audit_skips;
        Alcotest.test_case "ring audit singleton/empty" `Quick
          test_ring_audit_singleton_and_empty;
        QCheck_alcotest.to_alcotest qcheck_ring_audit_truth;
        QCheck_alcotest.to_alcotest qcheck_reference_model;
      ] );
  ]
