(* Node-level fault injection and the mechanisms that defend against it:
   Nodefault model semantics (fail-slow, fail-silent, flapping, compose),
   netsim's per-node hook (send-time verdicts, delivery-time re-judging
   of receiver mutes, the dropped_node counter and Node_fault drop
   reason), Schedule node-fault constructors and ordering guarantees,
   the suspicion list's negative caching on a scripted node (backoff
   doubling, gossip-proof quarantine, clearing on direct contact),
   end-to-end lookup retries and root-side duplicate suppression, the
   new Obs events' JSON roundtrip, and the collector's failure-detector
   accuracy metrics — including ground-truth scoring through Live. *)

module NF = Repro_faults.Nodefault
module Netfault = Repro_faults.Netfault
module Schedule = Repro_faults.Schedule
module Engine = Simkit.Engine
module Net = Netsim.Net
module Obs = Repro_obs
module Event = Obs.Event
module Node = Mspastry.Node
module M = Mspastry.Message
module Config = Mspastry.Config
module Nodeid = Pastry.Nodeid
module Peer = Pastry.Peer
module Sim = Harness.Sim
module Live = Sim.Live
module Collector = Overlay_metrics.Collector
module Rng = Repro_util.Rng

(* ------------------------------------------------------- model semantics *)

let check_verdict = Alcotest.(check bool)

let test_fail_slow_model () =
  let f = NF.fail_slow ~factor:2.0 ~extra:0.1 ~addrs:[ 3; 5 ] () in
  check_verdict "victim slowed on send" true
    (NF.decide f ~time:0.0 ~dir:NF.Send ~addr:3 = NF.Slow { factor = 2.0; extra = 0.1 });
  check_verdict "victim slowed on recv" true
    (NF.decide f ~time:0.0 ~dir:NF.Recv ~addr:5 = NF.Slow { factor = 2.0; extra = 0.1 });
  check_verdict "bystander passes" true (NF.decide f ~time:0.0 ~dir:NF.Send ~addr:4 = NF.Pass);
  Alcotest.check_raises "factor < 1" (Invalid_argument "Nodefault.fail_slow: factor < 1")
    (fun () -> ignore (NF.fail_slow ~factor:0.5 ~addrs:[ 1 ] ()));
  Alcotest.check_raises "no slowdown"
    (Invalid_argument "Nodefault.fail_slow: no slowdown (factor 1, extra 0)") (fun () ->
      ignore (NF.fail_slow ~addrs:[ 1 ] ()))

let test_fail_silent_model () =
  let f = NF.fail_silent ~addrs:[ 7 ] () in
  check_verdict "victim muted on send" true
    (NF.decide f ~time:0.0 ~dir:NF.Send ~addr:7 = NF.Mute);
  (* fail-silent is not a crash: the victim still receives *)
  check_verdict "victim still receives" true
    (NF.decide f ~time:0.0 ~dir:NF.Recv ~addr:7 = NF.Pass);
  check_verdict "bystander passes" true (NF.decide f ~time:0.0 ~dir:NF.Send ~addr:8 = NF.Pass)

let test_flapping_model () =
  let f = NF.flapping ~period:100.0 ~duty:0.3 ~addrs:[ 2 ] () in
  check_verdict "down at cycle start" true
    (NF.decide f ~time:0.0 ~dir:NF.Send ~addr:2 = NF.Mute);
  check_verdict "down mid-duty" true (NF.decide f ~time:29.9 ~dir:NF.Recv ~addr:2 = NF.Mute);
  check_verdict "up after duty" true (NF.decide f ~time:30.0 ~dir:NF.Send ~addr:2 = NF.Pass);
  check_verdict "periodic: down again next cycle" true
    (NF.decide f ~time:125.0 ~dir:NF.Send ~addr:2 = NF.Mute);
  check_verdict "bystander unaffected" true
    (NF.decide f ~time:0.0 ~dir:NF.Send ~addr:3 = NF.Pass);
  (* phase shifts the cycle; times before the phase normalise correctly *)
  let g = NF.flapping ~phase:50.0 ~period:100.0 ~duty:0.3 ~addrs:[ 2 ] () in
  check_verdict "before phase, up" true (NF.decide g ~time:0.0 ~dir:NF.Send ~addr:2 = NF.Pass);
  check_verdict "at phase, down" true (NF.decide g ~time:50.0 ~dir:NF.Send ~addr:2 = NF.Mute);
  Alcotest.check_raises "duty 1" (Invalid_argument "Nodefault.flapping: duty") (fun () ->
      ignore (NF.flapping ~period:10.0 ~duty:1.0 ~addrs:[ 1 ] ()));
  Alcotest.check_raises "non-positive period"
    (Invalid_argument "Nodefault.flapping: period") (fun () ->
      ignore (NF.flapping ~period:0.0 ~duty:0.3 ~addrs:[ 1 ] ()))

let test_compose_model () =
  let slow a = NF.fail_slow ~factor:2.0 ~extra:0.1 ~addrs:[ a ] () in
  let c = NF.compose [ slow 1; slow 1; NF.fail_silent ~addrs:[ 9 ] () ] in
  check_verdict "factors multiply, extras add" true
    (NF.decide c ~time:0.0 ~dir:NF.Send ~addr:1
    = NF.Slow { factor = 4.0; extra = 0.2 });
  check_verdict "mute short-circuits" true (NF.decide c ~time:0.0 ~dir:NF.Send ~addr:9 = NF.Mute);
  check_verdict "untouched address passes" true
    (NF.decide c ~time:0.0 ~dir:NF.Send ~addr:5 = NF.Pass);
  check_verdict "empty compose passes" true
    (NF.decide (NF.compose []) ~time:0.0 ~dir:NF.Send ~addr:1 = NF.Pass)

(* ------------------------------------------------------ netsim integration *)

let make_net ?trace () =
  let engine = Engine.create () in
  let topology = Topology.constant ~n_endpoints:4 ~delay:0.01 in
  let net = Net.create ?trace ~engine ~topology ~rng:(Rng.create 7) () in
  (engine, net)

let set_node net node = Net.set_faults net ~link:Netfault.none ~node

let test_net_fail_slow_delay () =
  let engine, net = make_net () in
  let at = ref nan in
  Net.register net ~addr:1 (fun ~src:_ _ -> at := Engine.now engine);
  set_node net (NF.fail_slow ~factor:2.0 ~extra:0.1 ~addrs:[ 0 ] ());
  Net.send net ~src:0 ~dst:1 "slowed sender";
  Engine.run_all engine;
  Alcotest.(check (float 1e-9)) "prop x factor + extra" 0.12 !at;
  (* both ends slowed: factors multiply, extras add *)
  set_node net (NF.fail_slow ~factor:2.0 ~extra:0.1 ~addrs:[ 0; 1 ] ());
  Net.send net ~src:0 ~dst:1 "both ends";
  Engine.run_all engine;
  Alcotest.(check (float 1e-9)) "both ends slow" 0.24 (!at -. 0.12)

let test_net_fail_silent () =
  let trace = Obs.Trace.create (Obs.Sink.memory ~capacity:100) in
  let engine, net = make_net ~trace () in
  let got = ref 0 in
  Net.register net ~addr:0 (fun ~src:_ _ -> incr got);
  Net.register net ~addr:1 (fun ~src:_ _ -> incr got);
  set_node net (NF.fail_silent ~addrs:[ 0 ] ());
  Net.send net ~src:0 ~dst:1 "swallowed at source";
  Net.send net ~src:1 ~dst:0 "still delivered to the silent node";
  Engine.run_all engine;
  Alcotest.(check int) "victim's send dropped, inbound delivered" 1 !got;
  Alcotest.(check int) "dropped_node counted" 1 (Net.stats net).Net.dropped_node;
  Alcotest.(check int) "other drop counters untouched" 0
    ((Net.stats net).Net.dropped_loss + (Net.stats net).Net.dropped_fault);
  let node_drops =
    List.filter
      (fun (e : Event.t) ->
        match e.Event.body with
        | Event.Drop { reason = Event.Node_fault; _ } -> true
        | _ -> false)
      (Obs.Trace.events trace)
  in
  Alcotest.(check int) "one Node_fault drop event" 1 (List.length node_drops);
  (* heal restores delivery *)
  set_node net NF.none;
  Net.send net ~src:0 ~dst:1 "after heal";
  Engine.run_all engine;
  Alcotest.(check int) "delivered after heal" 2 !got;
  Alcotest.(check int) "no drop after heal" 1 (Net.stats net).Net.dropped_node

let test_net_flapping_rejudged_at_delivery () =
  let engine, net = make_net () in
  let got = ref [] in
  Net.register net ~addr:1 (fun ~src:_ m -> got := (Engine.now engine, m) :: !got);
  set_node net (NF.flapping ~period:100.0 ~duty:0.5 ~addrs:[ 1 ] ());
  (* sent while the receiver is down and delivered while still down *)
  ignore (Engine.schedule_at engine ~time:10.0 (fun () -> Net.send net ~src:0 ~dst:1 "a"));
  (* sent while down but delivered after it comes back up: the receiver
     mute is re-judged at delivery time, like a host rebooting mid-flight *)
  ignore
    (Engine.schedule_at engine ~time:49.995 (fun () -> Net.send net ~src:0 ~dst:1 "b"));
  ignore (Engine.schedule_at engine ~time:60.0 (fun () -> Net.send net ~src:0 ~dst:1 "c"));
  Engine.run_all engine;
  Alcotest.(check (list string)) "only up-at-delivery messages arrive" [ "b"; "c" ]
    (List.rev_map snd !got);
  Alcotest.(check int) "one node drop" 1 (Net.stats net).Net.dropped_node

(* --------------------------------------------------------------- schedule *)

let test_schedule_node_fault_constructors () =
  Alcotest.(check string) "fail-slow label" "fail-slow x2 +0.1s 10% for 600s"
    (Schedule.fail_slow ~factor:2.0 ~extra:0.1 ~time:0.0 ~duration:600.0 0.1)
      .Schedule.label;
  Alcotest.(check string) "fail-silent label" "fail-silent 25% for 60s"
    (Schedule.fail_silent ~time:0.0 ~duration:60.0 0.25).Schedule.label;
  Alcotest.(check string) "flapping label" "flapping 30s/20% 50% for 120s"
    (Schedule.flapping ~time:0.0 ~duration:120.0 ~period:30.0 ~duty:0.2 0.5)
      .Schedule.label;
  Alcotest.check_raises "fail-slow needs a slowdown"
    (Invalid_argument "Schedule.node_fault: fail-slow parameters") (fun () ->
      ignore (Schedule.fail_slow ~time:0.0 ~duration:60.0 0.1));
  Alcotest.check_raises "bad duty"
    (Invalid_argument "Schedule.node_fault: flapping parameters") (fun () ->
      ignore (Schedule.flapping ~time:0.0 ~duration:60.0 ~period:30.0 ~duty:1.5 0.1));
  Alcotest.check_raises "bad fraction" (Invalid_argument "Schedule.node_fault: fraction")
    (fun () -> ignore (Schedule.fail_silent ~time:0.0 ~duration:60.0 1.5));
  Alcotest.check_raises "bad duration" (Invalid_argument "Schedule.node_fault: duration")
    (fun () -> ignore (Schedule.fail_silent ~time:0.0 ~duration:0.0 0.1))

let test_schedule_equal_timestamps_keep_insertion_order () =
  let evs =
    [
      Schedule.fail_silent ~label:"first" ~time:100.0 ~duration:10.0 0.1;
      Schedule.heal ~label:"second" 100.0;
      Schedule.crash_fraction ~label:"third" ~time:100.0 0.1;
      Schedule.heal ~label:"earlier" 50.0;
    ]
  in
  Alcotest.(check (list string)) "stable sort: ties stay in insertion order"
    [ "earlier"; "first"; "second"; "third" ]
    (List.map (fun (e : Schedule.event) -> e.Schedule.label) (Schedule.sorted evs))

let flat_config ?(lookup_rate = 0.3) ?(seed = 9) ?(fault_schedule = []) ?(e2e = 0) () =
  {
    Sim.default_config with
    topology = Sim.Flat 0.02;
    lookup_rate;
    seed;
    warmup = 0.0;
    window = 60.0;
    fault_schedule;
    pastry = { Sim.default_config.Sim.pastry with Config.e2e_lookup_retries = e2e };
  }

let spawn_overlay live ~n =
  for i = 0 to n - 1 do
    Live.spawn_at live ~time:(float_of_int i *. 5.0) ()
  done

let test_live_heal_before_overlay_is_noop () =
  (* a Heal scheduled before a node-fault overlay clears nothing and does
     not cancel the later injection: the overlay still installs at its
     own timestamp and still self-heals after its duration *)
  let schedule =
    [
      Schedule.heal ~label:"early-heal" 300.0;
      Schedule.fail_silent ~label:"late-fault" ~time:400.0 ~duration:100.0 0.2;
    ]
  in
  let live = Live.create (flat_config ~fault_schedule:schedule ()) ~n_endpoints:16 in
  spawn_overlay live ~n:8;
  let node_drops () = (Net.stats (Live.net live)).Net.dropped_node in
  Live.run_until live 350.0;
  Alcotest.(check int) "no node drops after early heal" 0 (node_drops ());
  Live.run_until live 450.0;
  Alcotest.(check bool) "overlay installed despite earlier heal" true
    (node_drops () > 0);
  (* fail-silent mutes at send time only, so drops stop at the expiry *)
  Live.run_until live 500.5;
  let at_expiry = node_drops () in
  Live.run_until live 550.0;
  Alcotest.(check int) "overlay self-healed after duration" at_expiry (node_drops ())

(* ----------------------------------------- suspicion list (scripted node) *)

type script = {
  engine : Engine.t;
  mutable sent : (int * M.t) list;
  mutable delivered : M.lookup list;
}

let make_script () = { engine = Engine.create (); sent = []; delivered = [] }

let env_of ?(trace = Obs.Trace.disabled) s =
  {
    Node.now = (fun () -> Engine.now s.engine);
    send = (fun ~dst msg -> s.sent <- (dst, msg) :: s.sent);
    schedule = (fun ~delay fn -> Engine.schedule s.engine ~delay fn);
    cancel = (fun ev -> Engine.cancel s.engine ev);
    rng = Rng.create 42;
    deliver = (fun l -> s.delivered <- l :: s.delivered);
    forward = (fun ~prev:_ _ -> Node.Continue);
    on_active = (fun () -> ());
    on_join_failed = (fun () -> ());
    on_suspicion = (fun ~target:_ -> ());
    on_progress_suspect = (fun ~target:_ -> ());
    on_poison_reject = (fun ~target:_ -> ());
    load = (fun () -> 0);
    trace;
  }

let hexid prefix =
  Nodeid.of_hex
    (prefix ^ String.concat "" (List.init (32 - String.length prefix) (fun _ -> "0")))

let sent_to s addr =
  List.filter_map (fun (d, m) -> if d = addr then Some m else None) (List.rev s.sent)

let advance s dt = Engine.run s.engine ~until:(Engine.now s.engine +. dt)

let cfg = Config.default

(* an active node with one leaf-set member [other] (addr 1) *)
let active_pair ?(cfg = cfg) ?trace () =
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of ?trace s) ~id:(hexid "a0") ~addr:0 in
  Node.bootstrap node;
  let other = Peer.make (hexid "b0") 1 in
  Node.handle node ~src:1
    (M.make ~sender:other (M.Ls_probe { leaf = []; failed = []; trt = 30.0; target = hexid "a0" }));
  s.sent <- [];
  (s, node, other)

let accuse s node ~(accuser : Peer.t) ~(accused : Peer.t) =
  Node.handle node ~src:accuser.Peer.addr
    (M.make ~sender:accuser
       (M.Ls_probe { leaf = []; failed = [ accused.Peer.id ]; trt = 30.0; target = hexid "a0" }));
  (* let the verification probe exhaust its retries *)
  advance s (float_of_int (Config.max_probe_retries + 1) *. Config.t_out +. 1.0)

let test_suspicion_negative_caching () =
  let s, node, other = active_pair () in
  let third = Peer.make (hexid "c0") 2 in
  Node.handle node ~src:2
    (M.make ~sender:third (M.Ls_probe { leaf = []; failed = []; trt = 30.0; target = hexid "a0" }));
  s.sent <- [];
  accuse s node ~accuser:other ~accused:third;
  Alcotest.(check (list string)) "quarantined after probe retries exhausted"
    [ Nodeid.to_hex third.Peer.id ]
    (List.map Nodeid.to_hex (Node.suspected_set node));
  (* gossip cannot reinstall a quarantined peer: a leaf-set candidate list
     naming it must not trigger an admission probe *)
  s.sent <- [];
  Node.handle node ~src:1
    (M.make ~sender:other (M.Ls_probe { leaf = [ third ]; failed = []; trt = 30.0; target = hexid "a0" }));
  advance s 1.0;
  Alcotest.(check int) "no probe sent to the quarantined peer" 0
    (List.length (sent_to s 2));
  Alcotest.(check bool) "still not in leafset" false
    (Pastry.Leafset.mem (Node.leafset node) third.Peer.id);
  (* the entry expires after the initial backoff, and expiry actively
     revalidates: the node re-probes the quarantined peer itself rather
     than waiting for gossip that may never name it again *)
  s.sent <- [];
  advance s (Config.suspicion_backoff +. 1.0);
  Alcotest.(check (list string)) "expired" []
    (List.map Nodeid.to_hex (Node.suspected_set node));
  Alcotest.(check bool) "revalidation probe sent at expiry" true
    (List.length (sent_to s 2) > 0);
  (* the revalidation probe times out too, and the relapse doubles the
     backoff — after one more initial-backoff period it is still
     quarantined, and only a direct message from the peer clears it *)
  advance s (float_of_int (Config.max_probe_retries + 1) *. Config.t_out +. 1.0);
  advance s (Config.suspicion_backoff +. 1.0);
  Alcotest.(check int) "still quarantined after one backoff (doubled)" 1
    (List.length (Node.suspected_set node));
  Node.handle node ~src:2
    (M.make ~sender:third (M.Ls_probe { leaf = []; failed = []; trt = 30.0; target = hexid "a0" }));
  Alcotest.(check (list string)) "direct contact clears the quarantine" []
    (List.map Nodeid.to_hex (Node.suspected_set node))

let test_probe_volley_escalation () =
  let cfg = { cfg with Config.probe_volley = 4 } in
  let s, node, other = active_pair ~cfg () in
  let third = Peer.make (hexid "c0") 2 in
  Node.handle node ~src:2
    (M.make ~sender:third (M.Ls_probe { leaf = []; failed = []; trt = 30.0; target = hexid "a0" }));
  s.sent <- [];
  (* an accusation triggers a verification probe; the target never
     answers, so each retry escalates the packet train *)
  Node.handle node ~src:1
    (M.make ~sender:other
       (M.Ls_probe { leaf = []; failed = [ third.Peer.id ]; trt = 30.0; target = hexid "a0" }));
  let probes () =
    List.length
      (List.filter
         (fun m -> match m.M.payload with M.Ls_probe _ -> true | _ -> false)
         (sent_to s 2))
  in
  Alcotest.(check int) "first transmission is a single packet" 1 (probes ());
  advance s (Config.t_out +. 0.1);
  Alcotest.(check int) "first retry escalates to volley^1" (1 + 4) (probes ());
  advance s Config.t_out;
  Alcotest.(check int) "second retry escalates to volley^2" (1 + 4 + 16) (probes ())

(* --------------------------------------------------- end-to-end retries *)

let test_e2e_retry_and_ack () =
  let cfg = { cfg with Config.e2e_lookup_retries = 2 } in
  let trace = Obs.Trace.create (Obs.Sink.memory ~capacity:1000) in
  let s, node, other = active_pair ~cfg ~trace () in
  Node.lookup node ~key:(hexid "b0") ~seq:77;
  Alcotest.(check int) "e2e state installed" 1 (Node.pending_e2e node);
  advance s 30.0;
  let retries =
    List.filter
      (fun (e : Event.t) ->
        match e.Event.body with Event.Lookup_retry { seq = 77; _ } -> true | _ -> false)
      (Obs.Trace.events trace)
  in
  Alcotest.(check int) "retried e2e up to the budget" 2 (List.length retries);
  Alcotest.(check int) "gave up after the budget" 0 (Node.pending_e2e node);
  (* a fresh lookup acked end-to-end stands down without retrying *)
  Node.lookup node ~key:(hexid "b0") ~seq:78;
  Node.handle node ~src:1 (M.make ~sender:other (M.Lookup_ack { seq = 78 }));
  Alcotest.(check int) "receipt clears pending state" 0 (Node.pending_e2e node);
  advance s 30.0;
  let retries78 =
    List.filter
      (fun (e : Event.t) ->
        match e.Event.body with Event.Lookup_retry { seq = 78; _ } -> true | _ -> false)
      (Obs.Trace.events trace)
  in
  Alcotest.(check int) "no retry after receipt" 0 (List.length retries78)

let test_root_dedup_and_receipt () =
  let cfg = { cfg with Config.e2e_lookup_retries = 2 } in
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.bootstrap node;
  let origin = Peer.make (hexid "b0") 1 in
  let l =
    { M.key = hexid "a0"; seq = 5; origin; hops = 2; retx = false; reliable = true }
  in
  Node.handle node ~src:1 (M.make ~sender:origin (M.Lookup l));
  Node.handle node ~src:1 (M.make ~sender:origin (M.Lookup { l with M.retx = true }));
  Alcotest.(check int) "duplicate delivery suppressed at the root" 1
    (List.length s.delivered);
  let acks =
    List.filter
      (fun m -> match m.M.payload with M.Lookup_ack { seq = 5 } -> true | _ -> false)
      (sent_to s 1)
  in
  Alcotest.(check int) "every copy is (re-)acked to the origin" 2 (List.length acks)

let test_root_dedup_off_by_default () =
  (* with e2e retries off (the default), delivery behaviour is unchanged:
     duplicates reach the application and no receipts are sent *)
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:(hexid "a0") ~addr:0 in
  Node.bootstrap node;
  let origin = Peer.make (hexid "b0") 1 in
  let l =
    { M.key = hexid "a0"; seq = 5; origin; hops = 2; retx = false; reliable = true }
  in
  Node.handle node ~src:1 (M.make ~sender:origin (M.Lookup l));
  Node.handle node ~src:1 (M.make ~sender:origin (M.Lookup { l with M.retx = true }));
  Alcotest.(check int) "duplicates delivered (baseline semantics)" 2
    (List.length s.delivered);
  let acks =
    List.filter
      (fun m -> match m.M.payload with M.Lookup_ack _ -> true | _ -> false)
      (sent_to s 1)
  in
  Alcotest.(check int) "no receipts" 0 (List.length acks)

(* ------------------------------------------------------- obs event roundtrip *)

let test_event_roundtrip () =
  let events =
    [
      { Event.time = 1.5; body = Event.Suspected { addr = 3; target = 9; backoff = 60.0 } };
      { Event.time = 2.5; body = Event.Unsuspected { addr = 3; target = 9 } };
      { Event.time = 3.5; body = Event.Lookup_retry { seq = 41; addr = 3; attempt = 2 } };
      {
        Event.time = 4.5;
        body = Event.Drop { src = 1; dst = 2; cls = "lookup"; seq = Some 7; reason = Event.Node_fault };
      };
    ]
  in
  List.iter
    (fun ev ->
      match Event.of_json (Event.to_json ev) with
      | Ok ev' -> Alcotest.(check bool) (Event.kind_name ev ^ " roundtrips") true (ev = ev')
      | Error e -> Alcotest.failf "%s does not roundtrip: %s" (Event.kind_name ev) e)
    events;
  Alcotest.(check (list string)) "kind names"
    [ "suspected"; "unsuspected"; "lookup-retry"; "drop" ]
    (List.map Event.kind_name events)

(* ------------------------------------------------------- collector metrics *)

let test_collector_detector_metrics () =
  let c = Collector.create ~window:60.0 () in
  Collector.suspicion_recorded c ~time:10.0 ~target_alive:true;
  Collector.suspicion_recorded c ~time:20.0 ~target_alive:false;
  Collector.suspicion_recorded c ~time:30.0 ~target_alive:true;
  Collector.crash_detected c ~time:25.0 ~latency:12.0;
  Collector.crash_detected c ~time:35.0 ~latency:18.0;
  let s = Collector.summary c in
  Alcotest.(check int) "suspicions" 3 s.Collector.suspicions;
  Alcotest.(check int) "false suspicions" 2 s.Collector.false_suspicions;
  Alcotest.(check (float 1e-9)) "false rate" (2.0 /. 3.0) s.Collector.false_suspicion_rate;
  Alcotest.(check int) "crashes detected" 2 s.Collector.crashes_detected;
  Alcotest.(check (float 1e-9)) "mean time-to-detect" 15.0 s.Collector.detect_latency_mean;
  (* interval filtering *)
  let s = Collector.summary ~since:15.0 ~until:28.0 c in
  Alcotest.(check int) "windowed suspicions" 1 s.Collector.suspicions;
  Alcotest.(check int) "windowed false suspicions" 0 s.Collector.false_suspicions;
  Alcotest.(check int) "windowed detections" 1 s.Collector.crashes_detected;
  Alcotest.(check (float 1e-9)) "windowed TTD" 12.0 s.Collector.detect_latency_mean

(* -------------------------------------------- live ground-truth scoring *)

let test_live_fail_silent_suspicions_and_ttd () =
  let live = Live.create (flat_config ()) ~n_endpoints:16 in
  spawn_overlay live ~n:10;
  Live.run_until live 300.0;
  (* a fail-silent victim is alive (still registered): every suspicion of
     it is a false suspicion against ground truth *)
  Live.inject live
    (Schedule.fail_silent ~label:"mute" ~time:300.0 ~duration:400.0 0.1);
  Live.run_until live 700.0;
  let s = Collector.summary (Live.collector live) in
  Alcotest.(check bool) "victim's sends were swallowed" true
    ((Net.stats (Live.net live)).Net.dropped_node > 0);
  Alcotest.(check bool) "the silent-but-alive node got suspected" true
    (s.Collector.false_suspicions > 0);
  Alcotest.(check int) "no true crash detected yet" 0 s.Collector.crashes_detected;
  (* now a real (non-graceful) crash: detection latency is measured from
     the crash instant to the first suspicion anywhere in the overlay *)
  Live.inject live (Schedule.crash_fraction ~label:"crash" ~time:700.0 0.2);
  Live.run_until live 1100.0;
  let s = Collector.summary (Live.collector live) in
  Alcotest.(check bool) "true crashes detected" true (s.Collector.crashes_detected > 0);
  Alcotest.(check bool) "positive detection latency" true
    (s.Collector.detect_latency_mean > 0.0)

let test_live_e2e_retries_raise_success_under_loss () =
  let run e2e =
    let live =
      Live.create (flat_config ~lookup_rate:0.5 ~seed:21 ~e2e ()) ~n_endpoints:16
    in
    spawn_overlay live ~n:10;
    Live.run_until live 900.0;
    (Collector.summary ~until:850.0 (Live.collector live)).Collector.success_rate
  in
  (* heavy uniform loss; same seed and workload either way *)
  let with_loss e2e =
    let live =
      Live.create
        { (flat_config ~lookup_rate:0.5 ~seed:21 ~e2e ()) with Sim.loss_rate = 0.25 }
        ~n_endpoints:16
    in
    spawn_overlay live ~n:10;
    Live.run_until live 900.0;
    (Collector.summary ~until:850.0 (Live.collector live)).Collector.success_rate
  in
  let baseline = run 0 in
  Alcotest.(check bool) "lossless baseline succeeds" true (baseline >= 0.99);
  (* under very heavy loss the residual failures are wrong-root
     deliveries (the deliverer believes it is the root and acks), which
     no amount of re-sending fixes — so the check is a solid improvement,
     not perfection; the >= 99% acceptance bar lives in the bursty-loss
     experiment at realistic loss rates (EXPERIMENTS.md E-faults B') *)
  let s0 = with_loss 0 and s3 = with_loss 3 in
  Alcotest.(check bool)
    (Printf.sprintf "retries improve end-to-end success (%.4f -> %.4f)" s0 s3)
    true
    (s3 > s0 && s3 >= 0.9)

let suite =
  [
    ( "nodefaults",
      [
        Alcotest.test_case "fail-slow model" `Quick test_fail_slow_model;
        Alcotest.test_case "fail-silent model" `Quick test_fail_silent_model;
        Alcotest.test_case "flapping model" `Quick test_flapping_model;
        Alcotest.test_case "compose model" `Quick test_compose_model;
        Alcotest.test_case "net fail-slow delay" `Quick test_net_fail_slow_delay;
        Alcotest.test_case "net fail-silent" `Quick test_net_fail_silent;
        Alcotest.test_case "net flapping re-judged at delivery" `Quick
          test_net_flapping_rejudged_at_delivery;
        Alcotest.test_case "schedule node-fault constructors" `Quick
          test_schedule_node_fault_constructors;
        Alcotest.test_case "schedule equal timestamps keep insertion order" `Quick
          test_schedule_equal_timestamps_keep_insertion_order;
        Alcotest.test_case "live heal before overlay is a no-op" `Slow
          test_live_heal_before_overlay_is_noop;
        Alcotest.test_case "suspicion negative caching" `Quick
          test_suspicion_negative_caching;
        Alcotest.test_case "probe volley escalation" `Quick
          test_probe_volley_escalation;
        Alcotest.test_case "e2e retry and ack" `Quick test_e2e_retry_and_ack;
        Alcotest.test_case "root dedup and receipt" `Quick test_root_dedup_and_receipt;
        Alcotest.test_case "root dedup off by default" `Quick
          test_root_dedup_off_by_default;
        Alcotest.test_case "new events roundtrip" `Quick test_event_roundtrip;
        Alcotest.test_case "collector detector metrics" `Quick
          test_collector_detector_metrics;
        Alcotest.test_case "live fail-silent suspicions and TTD" `Slow
          test_live_fail_silent_suspicions_and_ttd;
        Alcotest.test_case "live e2e retries raise success under loss" `Slow
          test_live_e2e_retries_raise_success_under_loss;
      ] );
  ]
