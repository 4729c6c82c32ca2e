module M = Mspastry.Message
module Peer = Pastry.Peer
module Nodeid = Pastry.Nodeid

let peer = Peer.make (Nodeid.of_int 1) 1

let lookup ?(retx = false) () =
  M.Lookup
    { key = Nodeid.of_int 2; seq = 0; origin = peer; hops = 0; retx }

let classify p = M.classify (M.make ~sender:peer p)

let test_lookup_classes () =
  Alcotest.(check string) "fresh lookup is traffic" "lookup"
    (M.class_name (classify (lookup ())));
  Alcotest.(check string) "retransmission is control" "acks+retransmits"
    (M.class_name (classify (lookup ~retx:true ())));
  Alcotest.(check bool) "lookup not control" false (M.is_control (classify (lookup ())))

let test_class_partition () =
  (* every payload falls in exactly one class, and every class is named *)
  let payloads =
    [
      lookup ();
      M.Join_request { joiner = peer; rows = [] };
      M.Join_reply { rows = []; leaf = [] };
      M.Ls_probe { leaf = []; failed = []; trt = 1.0; target = Nodeid.of_int 1 };
      M.Ls_probe_reply { leaf = []; failed = []; trt = 1.0 };
      M.Heartbeat;
      M.Hop_ack { hop_id = 1 };
      M.Rt_probe { target = Nodeid.of_int 1 };
      M.Rt_probe_reply { trt = 1.0 };
      M.Distance_probe { probe_seq = 1 };
      M.Distance_probe_reply { probe_seq = 1 };
      M.Rtt_report { rtt = 0.1 };
      M.Row_announce { row = 0; entries = [] };
      M.Row_request { row = 0 };
      M.Row_reply { row = 0; entries = [] };
      M.Slot_request { row = 0; col = 0 };
      M.Slot_reply { row = 0; col = 0; entry = None };
      M.Repair_request { left_side = true };
      M.Repair_reply { candidates = [] };
      M.Nn_request;
      M.Nn_reply { leaf = [] };
    ]
  in
  List.iter
    (fun p ->
      let c = classify p in
      Alcotest.(check bool) "class is known" true (List.mem c M.all_classes);
      Alcotest.(check bool) "named" true (String.length (M.class_name c) > 0))
    payloads

let test_expected_classes () =
  let check p name = Alcotest.(check string) name name (M.class_name (classify p)) in
  check M.Heartbeat "leafset-hb/probes";
  check (M.Rt_probe { target = Nodeid.of_int 1 }) "rt-probes";
  check (M.Distance_probe { probe_seq = 0 }) "distance-probes";
  check (M.Rtt_report { rtt = 0.1 }) "distance-probes";
  check (M.Hop_ack { hop_id = 0 }) "acks+retransmits";
  check M.Nn_request "join";
  check (M.Row_request { row = 0 }) "rt-maintenance";
  check (M.Slot_reply { row = 0; col = 0; entry = None }) "rt-maintenance"

let test_class_index () =
  List.iteri
    (fun i c -> Alcotest.(check int) (M.class_name c) i (M.class_index c))
    M.all_classes

let test_make () =
  let m = M.make ~hop:5 ~sender:peer M.Heartbeat in
  Alcotest.(check (option int)) "hop tag" (Some 5) m.M.hop;
  let m2 = M.make ~sender:peer M.Heartbeat in
  Alcotest.(check (option int)) "no hop tag" None m2.M.hop

let suite =
  [
    ( "message",
      [
        Alcotest.test_case "lookup classes" `Quick test_lookup_classes;
        Alcotest.test_case "class partition" `Quick test_class_partition;
        Alcotest.test_case "expected classes" `Quick test_expected_classes;
        Alcotest.test_case "class index is the position in all_classes" `Quick
          test_class_index;
        Alcotest.test_case "make" `Quick test_make;
      ] );
  ]
