(* Protocol-level unit tests: a single MSPastry node against a scripted
   environment. Every message the node sends is captured; replies are
   injected by hand. This pins down the wire behaviour of Fig 2 and the
   §3-§4 mechanisms independently of the full simulator. *)

module Node = Mspastry.Node
module M = Mspastry.Message
module Config = Mspastry.Config
module Nodeid = Pastry.Nodeid
module Peer = Pastry.Peer
module Engine = Simkit.Engine

type script = {
  engine : Engine.t;
  mutable sent : (int * M.t) list; (* reverse order: (dst addr, message) *)
  mutable delivered : M.lookup list;
  mutable activations : int;
  mutable join_failures : int;
}

let make_script () =
  {
    engine = Engine.create ();
    sent = [];
    delivered = [];
    activations = 0;
    join_failures = 0;
  }

let env_of s =
  {
    Node.now = (fun () -> Engine.now s.engine);
    send = (fun ~dst msg -> s.sent <- (dst, msg) :: s.sent);
    schedule = (fun ~delay fn -> Engine.schedule s.engine ~delay fn);
    cancel = (fun ev -> Engine.cancel s.engine ev);
    rng = Repro_util.Rng.create 42;
    deliver = (fun l -> s.delivered <- l :: s.delivered);
    forward = (fun ~prev:_ _ -> Node.Continue);
    on_active = (fun () -> s.activations <- s.activations + 1);
    on_join_failed = (fun () -> s.join_failures <- s.join_failures + 1);
    on_suspicion = (fun ~target:_ -> ());
    on_progress_suspect = (fun ~target:_ -> ());
    on_poison_reject = (fun ~target:_ -> ());
    load = (fun () -> 0);
    trace = Repro_obs.Trace.disabled;
  }

let cfg = Config.default

let hexid prefix =
  Nodeid.of_hex
    (prefix ^ String.concat "" (List.init (32 - String.length prefix) (fun _ -> "0")))

let take_sent s =
  let out = List.rev s.sent in
  s.sent <- [];
  out

let sent_to s addr =
  List.filter_map (fun (d, m) -> if d = addr then Some m else None) (take_sent s)

let payloads msgs = List.map (fun (m : M.t) -> m.M.payload) msgs

let advance s dt = Engine.run s.engine ~until:(Engine.now s.engine +. dt)

(* a fully-active node with one leaf-set member [other] *)
let active_pair () =
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.bootstrap node;
  let other = Peer.make (hexid "b0") 1 in
  Node.handle node ~src:1
    (M.make ~sender:other (M.Ls_probe { leaf = []; failed = []; trt = 30.0; target = hexid "a0" }));
  s.sent <- [];
  (s, node, other)

(* ---------------- bootstrap and join ---------------- *)

let test_bootstrap_active () =
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Alcotest.(check bool) "inactive at birth" false (Node.is_active node);
  Node.bootstrap node;
  Alcotest.(check bool) "active" true (Node.is_active node);
  Alcotest.(check int) "on_active fired once" 1 s.activations;
  Node.bootstrap node;
  Alcotest.(check int) "idempotent" 1 s.activations

let test_join_sends_nn_request () =
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.join node ~bootstrap_addr:9;
  match take_sent s with
  | [ (9, { M.payload = M.Nn_request; _ }) ] -> ()
  | _ -> Alcotest.fail "expected a single Nn_request to the bootstrap"

let test_nn_reply_triggers_distance_probes () =
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.join node ~bootstrap_addr:9;
  s.sent <- [];
  let seed = Peer.make (hexid "b0") 9 in
  let leafmate = Peer.make (hexid "c0") 5 in
  Node.handle node ~src:9 (M.make ~sender:seed (M.Nn_reply { leaf = [ leafmate ] }));
  let probes =
    List.filter
      (fun (_, m) -> match m.M.payload with M.Distance_probe _ -> true | _ -> false)
      (take_sent s)
  in
  Alcotest.(check int) "one single-sample probe per target" 2 (List.length probes)

let test_nn_probe_replies_lead_to_join_request () =
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.join node ~bootstrap_addr:9;
  s.sent <- [];
  let seed = Peer.make (hexid "b0") 9 in
  Node.handle node ~src:9 (M.make ~sender:seed (M.Nn_reply { leaf = [] }));
  (* answer the distance probe *)
  let reply_probe (dst, (m : M.t)) =
    match m.M.payload with
    | M.Distance_probe { probe_seq } ->
        let from = if dst = 9 then seed else Peer.make (hexid "c0") dst in
        advance s 0.001;
        Node.handle node ~src:dst
          (M.make ~sender:from (M.Distance_probe_reply { probe_seq }))
    | _ -> ()
  in
  List.iter reply_probe (List.rev s.sent);
  (* the nn round asked the seed again or joined; drive one more round *)
  advance s 5.0;
  let rec drain rounds =
    if rounds > 5 then Alcotest.fail "nn never converged"
    else begin
      let msgs = take_sent s in
      let join =
        List.exists
          (fun (_, m) -> match m.M.payload with M.Join_request _ -> true | _ -> false)
          msgs
      in
      if join then ()
      else begin
        List.iter
          (fun (dst, (m : M.t)) ->
            match m.M.payload with
            | M.Nn_request ->
                Node.handle node ~src:dst (M.make ~sender:seed (M.Nn_reply { leaf = [] }))
            | M.Distance_probe { probe_seq } ->
                Node.handle node ~src:dst
                  (M.make ~sender:seed (M.Distance_probe_reply { probe_seq }))
            | _ -> ())
          msgs;
        advance s 1.0;
        drain (rounds + 1)
      end
    end
  in
  drain 0

let test_join_reply_probes_leafset () =
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.join node ~bootstrap_addr:9;
  s.sent <- [];
  let root = Peer.make (hexid "a1") 9 in
  let m1 = Peer.make (hexid "a2") 2 and m2 = Peer.make (hexid "9f") 3 in
  Node.handle node ~src:9
    (M.make ~sender:root (M.Join_reply { rows = []; leaf = [ root; m1; m2 ] }));
  Alcotest.(check bool) "not active before probes answered" false (Node.is_active node);
  let probed =
    List.filter_map
      (fun (dst, m) -> match m.M.payload with M.Ls_probe _ -> Some dst | _ -> None)
      (take_sent s)
  in
  Alcotest.(check (list int)) "probes all three members" [ 2; 3; 9 ]
    (List.sort compare probed)

let test_activation_after_all_probe_replies () =
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.join node ~bootstrap_addr:9;
  s.sent <- [];
  let root = Peer.make (hexid "a1") 9 in
  let m1 = Peer.make (hexid "a2") 2 in
  Node.handle node ~src:9
    (M.make ~sender:root (M.Join_reply { rows = []; leaf = [ root; m1 ] }));
  s.sent <- [];
  let members = [ root; m1 ] in
  let reply from =
    Node.handle node ~src:from.Peer.addr
      (M.make ~sender:from
         (M.Ls_probe_reply { leaf = members; failed = []; trt = 30.0 }))
  in
  reply root;
  Alcotest.(check bool) "still waiting for m1" false (Node.is_active node);
  reply m1;
  Alcotest.(check bool) "active once everyone agreed" true (Node.is_active node);
  Alcotest.(check int) "on_active" 1 s.activations

let test_join_retry_and_failure () =
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.join node ~bootstrap_addr:9;
  (* never answer anything; retries then gives up *)
  Engine.run s.engine
    ~until:(Config.join_retry_period *. float_of_int (Config.max_join_retries + 2));
  Alcotest.(check int) "join failed" 1 s.join_failures;
  Alcotest.(check bool) "node dead" false (Node.is_alive node);
  let nn_requests =
    List.filter
      (fun (_, m) -> match m.M.payload with M.Nn_request -> true | _ -> false)
      s.sent
  in
  Alcotest.(check int) "one attempt per retry"
    (Config.max_join_retries + 1)
    (List.length nn_requests)

(* ---------------- leaf-set probing (Fig 2) ---------------- *)

let test_ls_probe_gets_reply_and_insertion () =
  let s, node, other = active_pair () in
  Alcotest.(check bool) "sender inserted" true
    (Pastry.Leafset.mem (Node.leafset node) other.Peer.id);
  ignore (take_sent s);
  let third = Peer.make (hexid "c0") 2 in
  Node.handle node ~src:2
    (M.make ~sender:third (M.Ls_probe { leaf = []; failed = []; trt = 30.0; target = hexid "a0" }));
  let to_third = sent_to s 2 in
  let has_reply =
    List.exists (function M.Ls_probe_reply _ -> true | _ -> false) (payloads to_third)
  in
  Alcotest.(check bool) "reply sent" true has_reply;
  Alcotest.(check bool) "third inserted" true
    (Pastry.Leafset.mem (Node.leafset node) third.Peer.id)

let test_ls_probe_candidates_probed_not_inserted () =
  let s, node, other = active_pair () in
  ignore (take_sent s);
  let unseen = Peer.make (hexid "c5") 7 in
  (* [other] gossips [unseen] in its leaf set *)
  Node.handle node ~src:1
    (M.make ~sender:other (M.Ls_probe { leaf = [ unseen ]; failed = []; trt = 30.0; target = hexid "a0" }));
  Alcotest.(check bool) "anti-bounce: not inserted from hearsay" false
    (Pastry.Leafset.mem (Node.leafset node) unseen.Peer.id);
  let probed_unseen =
    List.exists (function M.Ls_probe _ -> true | _ -> false) (payloads (sent_to s 7))
  in
  Alcotest.(check bool) "probed before admission" true probed_unseen

let test_claimed_failure_is_verified () =
  let s, node, other = active_pair () in
  (* add a second member directly *)
  let third = Peer.make (hexid "c0") 2 in
  Node.handle node ~src:2
    (M.make ~sender:third (M.Ls_probe { leaf = []; failed = []; trt = 30.0; target = hexid "a0" }));
  ignore (take_sent s);
  (* [other] claims [third] is dead *)
  Node.handle node ~src:1
    (M.make ~sender:other
       (M.Ls_probe { leaf = []; failed = [ third.Peer.id ]; trt = 30.0; target = hexid "a0" }));
  Alcotest.(check bool) "evicted pending verification" false
    (Pastry.Leafset.mem (Node.leafset node) third.Peer.id);
  let verification =
    List.exists (function M.Ls_probe _ -> true | _ -> false) (payloads (sent_to s 2))
  in
  Alcotest.(check bool) "verification probe to the accused" true verification;
  (* the accused answers: it must be re-admitted *)
  Node.handle node ~src:2
    (M.make ~sender:third (M.Ls_probe_reply { leaf = []; failed = []; trt = 30.0 }));
  Alcotest.(check bool) "false positive recovered" true
    (Pastry.Leafset.mem (Node.leafset node) third.Peer.id)

let test_probe_timeout_marks_faulty () =
  let s, node, other = active_pair () in
  let third = Peer.make (hexid "c0") 2 in
  Node.handle node ~src:2
    (M.make ~sender:third (M.Ls_probe { leaf = []; failed = []; trt = 30.0; target = hexid "a0" }));
  ignore (take_sent s);
  (* accuse the third node; it never answers the verification probe *)
  Node.handle node ~src:1
    (M.make ~sender:other
       (M.Ls_probe { leaf = []; failed = [ third.Peer.id ]; trt = 30.0; target = hexid "a0" }));
  (* timeout: (retries+1) * To, plus slack *)
  advance s (float_of_int (Config.max_probe_retries + 1) *. Config.t_out +. 1.0);
  (* Fig 2 clears failed_i as soon as probing completes with a complete
     leaf set, so we assert the durable effects: eviction, no re-adoption *)
  Alcotest.(check bool) "not in leafset" false
    (Pastry.Leafset.mem (Node.leafset node) third.Peer.id);
  Alcotest.(check int) "no probe left outstanding" 0 (Node.pending_probes node);
  (* probes were retried before giving up *)
  let probes_to_third =
    List.filter (function M.Ls_probe _ -> true | _ -> false) (payloads (sent_to s 2))
  in
  Alcotest.(check int) "initial probe plus retries"
    (Config.max_probe_retries + 1)
    (List.length probes_to_third)

(* ---------------- heartbeats (§4.1) ---------------- *)

let test_heartbeat_to_left_neighbor () =
  let s, node, _other = active_pair () in
  ignore (take_sent s);
  (* first tick lands within one jitter window and may be suppressed by
     the join-time traffic; two full periods guarantee a beat *)
  advance s ((2.0 *. Config.t_ls) +. 2.0);
  (* with one member, it is both left and right neighbour *)
  let heartbeats =
    List.filter (function M.Heartbeat -> true | _ -> false) (payloads (sent_to s 1))
  in
  Alcotest.(check bool) "heartbeat sent" true (List.length heartbeats >= 1);
  ignore node

let test_silent_right_neighbor_suspected () =
  let s, node, _other = active_pair () in
  ignore (take_sent s);
  (* stay silent: after the neighbour-change grace period plus Tls + To
     (up to four heartbeat periods including scheduling jitter) the node
     must probe its right neighbour *)
  advance s ((4.0 *. Config.t_ls) +. 10.0);
  let probes =
    List.filter (function M.Ls_probe _ -> true | _ -> false) (payloads (sent_to s 1))
  in
  Alcotest.(check bool) "suspect probe sent" true (List.length probes >= 1);
  ignore node

let test_fresh_traffic_suppresses_suspicion () =
  let s, node, other = active_pair () in
  ignore (take_sent s);
  (* keep talking: inject a message from [other] every 10 s *)
  for _ = 1 to 12 do
    advance s 10.0;
    Node.handle node ~src:1 (M.make ~sender:other M.Heartbeat)
  done;
  let probes =
    List.filter (function M.Ls_probe _ -> true | _ -> false) (payloads (sent_to s 1))
  in
  Alcotest.(check int) "no suspicion while chatty" 0 (List.length probes)

(* ---------------- per-hop acks (§3.2) ---------------- *)

(* an active node with one routing-table entry far away and a leaf member *)
let routed_setup () =
  let s, node, other = active_pair () in
  (* install a row-0 entry directly (direct contact => legitimate) *)
  let far = Peer.make (hexid "f0") 4 in
  Node.handle node ~src:4 (M.make ~sender:far (M.Rtt_report { rtt = 0.05 }));
  ignore (take_sent s);
  (s, node, other, far)

let test_lookup_forwarded_with_hop_tag () =
  let s, node, other, _far = routed_setup () in
  (* two-node overlay: key f8's root is [other] (the leaf set wraps) *)
  Node.lookup node ~key:(hexid "f8") ~seq:1;
  (match sent_to s other.Peer.addr with
  | [ { M.hop = Some _; M.payload = M.Lookup l; _ } ] ->
      Alcotest.(check int) "hop counted" 1 l.M.hops;
      Alcotest.(check bool) "not a retransmission" false l.M.retx
  | _ -> Alcotest.fail "expected a hop-tagged lookup to the owner");
  Alcotest.(check int) "pending hop buffered" 1 (Node.pending_hops node)

let test_ack_clears_pending () =
  let s, node, other, _far = routed_setup () in
  Node.lookup node ~key:(hexid "f8") ~seq:1;
  let hop_id =
    match sent_to s other.Peer.addr with
    | [ { M.hop = Some h; _ } ] -> h
    | _ -> Alcotest.fail "expected tagged hop"
  in
  advance s 0.01;
  Node.handle node ~src:other.Peer.addr (M.make ~sender:other (M.Hop_ack { hop_id }));
  Alcotest.(check int) "pending cleared" 0 (Node.pending_hops node);
  (* no retransmission later *)
  advance s 5.0;
  let retx =
    List.exists
      (function M.Lookup l -> l.M.retx | _ -> false)
      (payloads (sent_to s other.Peer.addr))
  in
  Alcotest.(check bool) "no retransmit after ack" false retx

let test_missed_ack_reroutes () =
  let s, node, other, _far = routed_setup () in
  Node.lookup node ~key:(hexid "f8") ~seq:1;
  ignore (take_sent s);
  (* the owner [other] never acks. The consistency guard retransmits the
     lookup straight to the owner with growing backoff before the local
     node may deliver in its stead *)
  advance s 1.2;
  let early = take_sent s in
  Alcotest.(check int) "no premature local delivery" 0 (List.length s.delivered);
  let retx =
    List.exists
      (fun (dst, m) ->
        dst = other.Peer.addr
        && match m.M.payload with M.Lookup l -> l.M.retx | _ -> false)
      early
  in
  Alcotest.(check bool) "retransmitted to the owner" true retx;
  (* and the silent node is being checked on (it is a leaf member) *)
  let probed =
    List.exists
      (fun (dst, m) ->
        dst = other.Peer.addr
        && match m.M.payload with M.Rt_probe _ | M.Ls_probe _ -> true | _ -> false)
      early
  in
  Alcotest.(check bool) "silent node probed" true probed;
  (* once the probes evict the dead owner, we are the root and deliver *)
  advance s 20.0;
  Alcotest.(check int) "delivered after eviction" 1 (List.length s.delivered);
  ignore node

let test_unreliable_lookup_unacked () =
  let s, node, other, _far = routed_setup () in
  Node.lookup ~reliable:false node ~key:(hexid "f8") ~seq:1;
  (match sent_to s other.Peer.addr with
  | [ { M.hop = None; M.payload = M.Lookup l; _ } ] ->
      Alcotest.(check bool) "flagged unreliable" false l.M.reliable
  | _ -> Alcotest.fail "expected an untagged lookup");
  Alcotest.(check int) "nothing buffered" 0 (Node.pending_hops node)

let test_receiver_acks_hop () =
  let s, node, other = active_pair () in
  ignore (take_sent s);
  let lookup =
    M.make ~hop:77 ~sender:other
      (M.Lookup
         { key = hexid "a0"; seq = 5; origin = other; hops = 1; retx = false; reliable = true })
  in
  Node.handle node ~src:1 lookup;
  let acks =
    List.filter (function M.Hop_ack { hop_id } -> hop_id = 77 | _ -> false)
      (payloads (sent_to s 1))
  in
  Alcotest.(check int) "ack sent back" 1 (List.length acks);
  Alcotest.(check int) "delivered locally (we are root)" 1 (List.length s.delivered)

(* [p] introduces itself with a leaf-set probe *)
let greet node (p : Peer.t) =
  Node.handle node ~src:p.Peer.addr
    (M.make ~sender:p (M.Ls_probe { leaf = []; failed = []; trt = 30.0; target = hexid "a0" }))

(* a direct message is proof of liveness: it lifts the per-hop-ack
   exclusion, cancels the peer's routing-table probe and clears a failed
   mark. l = 2 keeps the leaf set from covering the key, so the lookup
   takes the routing table; no reroutes keeps the other peers quiet. *)
let test_direct_message_lifts_exclusion () =
  let cfg = { cfg with Config.l = 2; max_hop_reroutes = 0 } in
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.bootstrap node;
  let right = Peer.make (hexid "b0") 1 and left = Peer.make (hexid "90") 2 in
  let far = Peer.make (hexid "f0") 4 in
  greet node right;
  greet node left;
  Node.handle node ~src:4 (M.make ~sender:far (M.Rtt_report { rtt = 0.05 }));
  ignore (take_sent s);
  let key = hexid "f8" in
  (* the destination of lookup [seq], and its hop tag *)
  let route seq =
    Node.lookup node ~key ~seq;
    match
      List.filter_map
        (fun (dst, (m : M.t)) ->
          match m.M.payload with
          | M.Lookup l when l.M.seq = seq -> Some (dst, m.M.hop)
          | _ -> None)
        (take_sent s)
    with
    | [ (dst, Some hop) ] -> (dst, hop)
    | _ -> Alcotest.failf "lookup %d: expected one tagged hop" seq
  in
  let far_id = Nodeid.to_hex far.Peer.id in
  Alcotest.(check int) "routed through the table entry" 4 (fst (route 1));
  (* no ack: [far] is excluded and probed *)
  advance s 0.6;
  Alcotest.(check int) "rt probe outstanding" 1 (Node.pending_probes node);
  let dst, hop_id = route 2 in
  Alcotest.(check int) "excluded hop routed around" 1 dst;
  Node.handle node ~src:1 (M.make ~sender:right (M.Hop_ack { hop_id }));
  Node.handle node ~src:4 (M.make ~sender:far M.Heartbeat);
  Alcotest.(check int) "rt probe cancelled" 0 (Node.pending_probes node);
  Alcotest.(check int) "exclusion lifted" 4 (fst (route 3));
  (* unacked again, and the probe exhausts its retries: [far] is marked
     failed, quarantined and evicted *)
  advance s 0.6;
  advance s (float_of_int (Config.max_probe_retries + 1) *. Config.t_out +. 1.0);
  Alcotest.(check (list string)) "failed mark" [ far_id ]
    (List.map Nodeid.to_hex (Node.failed_set node));
  Alcotest.(check (list string)) "quarantined" [ far_id ]
    (List.map Nodeid.to_hex (Node.suspected_set node));
  Node.handle node ~src:4 (M.make ~sender:far (M.Rtt_report { rtt = 0.05 }));
  Alcotest.(check (list string)) "failed mark cleared" []
    (List.map Nodeid.to_hex (Node.failed_set node));
  Alcotest.(check (list string)) "quarantine lifted" []
    (List.map Nodeid.to_hex (Node.suspected_set node));
  Alcotest.(check int) "routed through it again" 4 (fst (route 4))

(* the sets come out in identifier order, whatever order the peers were
   met in *)
let test_suspected_set_sorted () =
  let s, node, other = active_pair () in
  let d = Peer.make (hexid "d0") 3 and c = Peer.make (hexid "c0") 2 in
  greet node d;
  greet node c;
  ignore (take_sent s);
  let failed = [ d.Peer.id; c.Peer.id ] in
  Node.handle node ~src:1
    (M.make ~sender:other (M.Ls_probe { leaf = []; failed; trt = 30.0; target = hexid "a0" }));
  advance s (float_of_int (Config.max_probe_retries + 1) *. Config.t_out +. 1.0);
  Alcotest.(check (list string)) "both suspects, sorted"
    [ Nodeid.to_hex c.Peer.id; Nodeid.to_hex d.Peer.id ]
    (List.map Nodeid.to_hex (Node.suspected_set node))

(* ---------------- misc handlers ---------------- *)

let test_rt_probe_replied () =
  let s, node, other = active_pair () in
  ignore (take_sent s);
  Node.handle node ~src:1 (M.make ~sender:other (M.Rt_probe { target = hexid "a0" }));
  let replies =
    List.filter (function M.Rt_probe_reply _ -> true | _ -> false)
      (payloads (sent_to s 1))
  in
  Alcotest.(check int) "reply" 1 (List.length replies);
  ignore node

let test_distance_probe_replied () =
  let s, node, other = active_pair () in
  ignore (take_sent s);
  Node.handle node ~src:1 (M.make ~sender:other (M.Distance_probe { probe_seq = 3 }));
  let ok =
    List.exists
      (function M.Distance_probe_reply { probe_seq } -> probe_seq = 3 | _ -> false)
      (payloads (sent_to s 1))
  in
  Alcotest.(check bool) "echoed seq" true ok;
  ignore node

let test_rtt_report_installs () =
  let _s, node, _ = active_pair () in
  let far = Peer.make (hexid "f0") 4 in
  Node.handle node ~src:4 (M.make ~sender:far (M.Rtt_report { rtt = 0.03 }));
  match Pastry.Routing_table.find (Node.table node) far.Peer.id with
  | Some e -> Alcotest.(check (float 1e-9)) "rtt stored" 0.03 e.Pastry.Routing_table.rtt
  | None -> Alcotest.fail "entry not installed"

(* symmetric distance probes (§4.2): a peer named by a Row_announce that
   fills an empty slot is measured, the announcer is not measured back,
   and the measured peer is told the median sample in an Rtt_report *)
let test_row_announce_reports_rtt () =
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.bootstrap node;
  ignore (take_sent s);
  let announcer = Peer.make (hexid "c0") 2 and named = Peer.make (hexid "f0") 4 in
  let t0 = Engine.now s.engine in
  Node.handle node ~src:2
    (M.make ~sender:announcer (M.Row_announce { row = 0; entries = [ (named, 0.01) ] }));
  (* answer sample [k] after [delays.(k)] seconds *)
  let delays = [| 0.05; 0.02; 0.04 |] in
  Alcotest.(check int) "one delay per sample" Config.distance_probe_count (Array.length delays);
  let to_named = ref 0 and to_announcer = ref 0 and samples = ref [] in
  let count_probes msgs =
    List.filter_map
      (fun (dst, (m : M.t)) ->
        match m.M.payload with
        | M.Distance_probe { probe_seq } when dst = named.Peer.addr ->
            incr to_named;
            Some probe_seq
        | M.Distance_probe _ when dst = announcer.Peer.addr ->
            incr to_announcer;
            None
        | _ -> None)
      msgs
  in
  for k = 0 to Config.distance_probe_count - 1 do
    Engine.run s.engine ~until:(t0 +. (float_of_int k *. Config.distance_probe_spacing));
    List.iter
      (fun probe_seq ->
        let sent_at = Engine.now s.engine in
        advance s delays.(k);
        samples := (Engine.now s.engine -. sent_at) :: !samples;
        Node.handle node ~src:4 (M.make ~sender:named (M.Distance_probe_reply { probe_seq })))
      (count_probes (take_sent s))
  done;
  (* past the measurement's finish timer *)
  advance s (Config.t_out +. 1.0);
  let rest = take_sent s in
  ignore (count_probes rest);
  Alcotest.(check int) "every sample to the named peer" Config.distance_probe_count !to_named;
  Alcotest.(check int) "the announcer is not measured" 0 !to_announcer;
  let median = Repro_util.Stats.median (Array.of_list !samples) in
  (match
     List.filter_map
       (fun (dst, (m : M.t)) ->
         match m.M.payload with
         | M.Rtt_report { rtt } when dst = named.Peer.addr -> Some rtt
         | _ -> None)
       rest
   with
  | [ rtt ] -> Alcotest.(check (float 1e-12)) "report carries the median" median rtt
  | reports -> Alcotest.failf "expected one Rtt_report, got %d" (List.length reports));
  match Pastry.Routing_table.find (Node.table node) named.Peer.id with
  | Some e -> Alcotest.(check (float 1e-12)) "installed at the median" median e.Pastry.Routing_table.rtt
  | None -> Alcotest.fail "measured peer not installed"

let test_row_request_reply () =
  let s, node, _ = active_pair () in
  let far = Peer.make (hexid "f0") 4 in
  Node.handle node ~src:4 (M.make ~sender:far (M.Rtt_report { rtt = 0.03 }));
  ignore (take_sent s);
  Node.handle node ~src:4 (M.make ~sender:far (M.Row_request { row = 0 }));
  let ok =
    List.exists
      (function
        | M.Row_reply { row = 0; entries } ->
            List.exists (fun ((p : Peer.t), _) -> Nodeid.equal p.Peer.id (hexid "f0")) entries
        | _ -> false)
      (payloads (sent_to s 4))
  in
  Alcotest.(check bool) "row contains the entry" true ok;
  ignore node

let test_slot_request_reply () =
  let s, node, _ = active_pair () in
  let far = Peer.make (hexid "f0") 4 in
  Node.handle node ~src:4 (M.make ~sender:far (M.Rtt_report { rtt = 0.03 }));
  ignore (take_sent s);
  let r, c =
    match Pastry.Routing_table.slot_of (Node.table node) far.Peer.id with
    | Some rc -> rc
    | None -> Alcotest.fail "slot"
  in
  Node.handle node ~src:4 (M.make ~sender:far (M.Slot_request { row = r; col = c }));
  let ok =
    List.exists
      (function
        | M.Slot_reply { entry = Some ((p : Peer.t), _); _ } ->
            Nodeid.equal p.Peer.id (hexid "f0")
        | _ -> false)
      (payloads (sent_to s 4))
  in
  Alcotest.(check bool) "slot echoed" true ok

let test_repair_request_reply () =
  let s, node, other = active_pair () in
  ignore (take_sent s);
  Node.handle node ~src:1 (M.make ~sender:other (M.Repair_request { left_side = true }));
  let ok =
    List.exists
      (function
        | M.Repair_reply { candidates } ->
            List.exists (fun (p : Peer.t) -> Nodeid.equal p.Peer.id (hexid "a0")) candidates
        | _ -> false)
      (payloads (sent_to s 1))
  in
  Alcotest.(check bool) "reply includes self" true ok;
  ignore node

let test_announce_rows_after_activation () =
  (* a joiner that received routing rows announces itself to the rows'
     members once active *)
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.join node ~bootstrap_addr:9;
  s.sent <- [];
  let root = Peer.make (hexid "a1") 9 in
  let row_peer = Peer.make (hexid "f0") 4 in
  Node.handle node ~src:9
    (M.make ~sender:root
       (M.Join_reply { rows = [ (0, [ (row_peer, 0.05) ]) ]; leaf = [ root ] }));
  s.sent <- [];
  Node.handle node ~src:9
    (M.make ~sender:root (M.Ls_probe_reply { leaf = [ root ]; failed = []; trt = 30.0 }));
  Alcotest.(check bool) "active" true (Node.is_active node);
  let announced =
    List.exists
      (fun (dst, m) ->
        dst = 4 && match m.M.payload with M.Row_announce _ -> true | _ -> false)
      (take_sent s)
  in
  Alcotest.(check bool) "row announced to its members" true announced

let test_maintenance_round_row_requests () =
  (* active probing off: scripted peers never answer probes and would be
     evicted long before the 20-minute maintenance round *)
  let s = make_script () in
  let cfg = { cfg with Config.active_probing = false } in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.bootstrap node;
  let far = Peer.make (hexid "f0") 4 in
  Node.handle node ~src:4 (M.make ~sender:far (M.Rtt_report { rtt = 0.05 }));
  ignore (take_sent s);
  (* wait past the maintenance period *)
  advance s (Config.rt_maintenance_period +. Config.rt_maintenance_period +. 5.0);
  let requests =
    List.filter
      (fun (_, m) -> match m.M.payload with M.Row_request _ -> true | _ -> false)
      (take_sent s)
  in
  Alcotest.(check bool) "periodic row requests sent" true (List.length requests >= 1);
  ignore node

let test_trt_piggybacked_is_local_estimate () =
  (* nodes gossip their own solution, not the adopted median: drive the
     node's remotes very low and check the value it piggybacks *)
  let s, node, other = active_pair () in
  ignore (take_sent s);
  for _ = 1 to 40 do
    Node.handle node ~src:1 (M.make ~sender:other (M.Rt_probe_reply { trt = 10.0 }))
  done;
  (* let a tuning refresh run *)
  advance s (2.0 *. Config.tuning_refresh_period +. 1.0);
  Alcotest.(check bool) "adopted Trt pulled down by remotes" true
    (Node.current_trt node < 60.0);
  s.sent <- [];
  Node.handle node ~src:1 (M.make ~sender:other (M.Rt_probe { target = hexid "a0" }));
  (match sent_to s 1 with
  | msgs -> (
      match
        List.find_opt (function M.Rt_probe_reply _ -> true | _ -> false) (payloads msgs)
      with
      | Some (M.Rt_probe_reply { trt }) ->
          (* no failures observed locally: the local estimate is the cap,
             regardless of the low adopted median *)
          Alcotest.(check (float 1e-6)) "piggybacks local estimate"
            Config.t_rt_max trt
      | _ -> Alcotest.fail "expected a probe reply"))

let test_join_rows_installed_unmeasured () =
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.join node ~bootstrap_addr:9;
  let root = Peer.make (hexid "a1") 9 in
  let row_peer = Peer.make (hexid "f0") 4 in
  Node.handle node ~src:9
    (M.make ~sender:root
       (M.Join_reply { rows = [ (0, [ (row_peer, 0.123) ]) ]; leaf = [ root ] }));
  (match Pastry.Routing_table.find (Node.table node) (hexid "f0") with
  | Some e ->
      (* installed for routing, but the carried RTT (someone else's
         vantage point) is not trusted as a PNS measurement *)
      Alcotest.(check bool) "unmeasured" false (Float.is_finite e.Pastry.Routing_table.rtt)
  | None -> Alcotest.fail "row entry not installed");
  (* and a distance probe is queued to measure it ourselves *)
  let probed =
    List.exists
      (fun (dst, m) ->
        dst = 4 && match m.M.payload with M.Distance_probe _ -> true | _ -> false)
      (List.rev s.sent)
  in
  Alcotest.(check bool) "own measurement started" true probed

let test_goodbye_immediate_eviction () =
  let s, node, other = active_pair () in
  ignore (take_sent s);
  Node.handle node ~src:1 (M.make ~sender:other M.Goodbye);
  Alcotest.(check bool) "evicted without probing" false
    (Pastry.Leafset.mem (Node.leafset node) other.Peer.id);
  (* no verification probes wasted on a node that told us it left *)
  let probes =
    List.filter
      (fun (_, m) -> match m.M.payload with M.Ls_probe _ -> true | _ -> false)
      (take_sent s)
  in
  Alcotest.(check int) "no probes to the departed" 0
    (List.length
       (List.filter (fun (dst, _) -> dst = other.Peer.addr) (List.map (fun m -> (1, m)) probes)));
  ignore probes

let test_leave_sends_goodbyes () =
  let s, node, other = active_pair () in
  ignore (take_sent s);
  Node.leave node;
  let goodbyes =
    List.filter
      (fun (dst, m) ->
        dst = other.Peer.addr && match m.M.payload with M.Goodbye -> true | _ -> false)
      (take_sent s)
  in
  Alcotest.(check int) "goodbye to the leaf member" 1 (List.length goodbyes);
  Alcotest.(check bool) "halted" false (Node.is_alive node)

let test_crash_silences () =
  let s, node, other = active_pair () in
  ignore (take_sent s);
  Node.crash node;
  Node.handle node ~src:1 (M.make ~sender:other (M.Rt_probe { target = hexid "a0" }));
  advance s 120.0;
  Alcotest.(check int) "no messages after crash" 0 (List.length s.sent);
  Alcotest.(check bool) "not active" false (Node.is_active node)

let test_inactive_buffering () =
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.join node ~bootstrap_addr:9;
  s.sent <- [];
  let root = Peer.make (hexid "a1") 9 in
  Node.handle node ~src:9
    (M.make ~sender:root (M.Join_reply { rows = []; leaf = [ root ] }));
  s.sent <- [];
  (* a lookup for our own id arrives while we are still inactive *)
  Node.handle node ~src:9
    (M.make ~sender:root
       (M.Lookup
         { key = hexid "a0"; seq = 3; origin = root; hops = 1; retx = false; reliable = true }));
  Alcotest.(check int) "not delivered while inactive" 0 (List.length s.delivered);
  (* activation: the root confirms our leaf set *)
  Node.handle node ~src:9
    (M.make ~sender:root (M.Ls_probe_reply { leaf = [ root ]; failed = []; trt = 30.0 }));
  Alcotest.(check bool) "active" true (Node.is_active node);
  advance s 2.0;
  Alcotest.(check int) "buffered lookup delivered after activation" 1
    (List.length s.delivered)

let suite =
  [
    ( "node",
      [
        Alcotest.test_case "bootstrap activates" `Quick test_bootstrap_active;
        Alcotest.test_case "join sends Nn_request" `Quick test_join_sends_nn_request;
        Alcotest.test_case "nn reply triggers distance probes" `Quick
          test_nn_reply_triggers_distance_probes;
        Alcotest.test_case "nn converges to join request" `Quick
          test_nn_probe_replies_lead_to_join_request;
        Alcotest.test_case "join reply probes leaf set" `Quick test_join_reply_probes_leafset;
        Alcotest.test_case "activation after all replies" `Quick
          test_activation_after_all_probe_replies;
        Alcotest.test_case "join retry then failure" `Quick test_join_retry_and_failure;
        Alcotest.test_case "ls probe: reply and insertion" `Quick
          test_ls_probe_gets_reply_and_insertion;
        Alcotest.test_case "ls probe: hearsay is probed, not inserted" `Quick
          test_ls_probe_candidates_probed_not_inserted;
        Alcotest.test_case "claimed failures verified" `Quick test_claimed_failure_is_verified;
        Alcotest.test_case "probe timeout marks faulty" `Quick test_probe_timeout_marks_faulty;
        Alcotest.test_case "heartbeat to left neighbour" `Quick test_heartbeat_to_left_neighbor;
        Alcotest.test_case "silent right neighbour suspected" `Quick
          test_silent_right_neighbor_suspected;
        Alcotest.test_case "traffic suppresses suspicion" `Quick
          test_fresh_traffic_suppresses_suspicion;
        Alcotest.test_case "lookup forwarded with hop tag" `Quick
          test_lookup_forwarded_with_hop_tag;
        Alcotest.test_case "ack clears pending hop" `Quick test_ack_clears_pending;
        Alcotest.test_case "missed ack reroutes and probes" `Quick test_missed_ack_reroutes;
        Alcotest.test_case "unreliable lookups unacked" `Quick
          test_unreliable_lookup_unacked;
        Alcotest.test_case "receiver acks hops" `Quick test_receiver_acks_hop;
        Alcotest.test_case "direct message lifts exclusion, probe and failed mark" `Quick
          test_direct_message_lifts_exclusion;
        Alcotest.test_case "suspected set sorted" `Quick test_suspected_set_sorted;
        Alcotest.test_case "rt probe replied" `Quick test_rt_probe_replied;
        Alcotest.test_case "distance probe replied" `Quick test_distance_probe_replied;
        Alcotest.test_case "rtt report installs entry" `Quick test_rtt_report_installs;
        Alcotest.test_case "row announce: measured peer gets an rtt report" `Quick
          test_row_announce_reports_rtt;
        Alcotest.test_case "row request" `Quick test_row_request_reply;
        Alcotest.test_case "slot request" `Quick test_slot_request_reply;
        Alcotest.test_case "repair request" `Quick test_repair_request_reply;
        Alcotest.test_case "row announcements after activation" `Quick
          test_announce_rows_after_activation;
        Alcotest.test_case "maintenance row requests" `Quick
          test_maintenance_round_row_requests;
        Alcotest.test_case "piggybacked Trt is the local estimate" `Quick
          test_trt_piggybacked_is_local_estimate;
        Alcotest.test_case "join rows installed unmeasured" `Quick
          test_join_rows_installed_unmeasured;
        Alcotest.test_case "goodbye evicts immediately" `Quick
          test_goodbye_immediate_eviction;
        Alcotest.test_case "leave sends goodbyes" `Quick test_leave_sends_goodbyes;
        Alcotest.test_case "crash silences the node" `Quick test_crash_silences;
        Alcotest.test_case "inactive lookups buffered" `Quick test_inactive_buffering;
      ] );
  ]
