(* The observability layer: ring-buffer sink semantics, JSONL
   round-tripping of every event variant, hop-path reconstruction from a
   live overlay's trace, engine/net runtime counters, and the guarantee
   that a disabled trace changes nothing. *)

module Obs = Repro_obs
module Event = Obs.Event
module Sim = Harness.Sim
module Live = Sim.Live
module Node = Mspastry.Node
module M = Mspastry.Message
module Collector = Overlay_metrics.Collector
module Peer = Pastry.Peer

(* ---------------------------------------------------------------- ring *)

let test_ring_eviction () =
  let r = Obs.Sink.Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Obs.Sink.Ring.push r i
  done;
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 7; 8; 9; 10 ]
    (Obs.Sink.Ring.to_list r);
  Alcotest.(check int) "evicted count" 6 (Obs.Sink.Ring.evicted r);
  Alcotest.(check int) "length" 4 (Obs.Sink.Ring.length r);
  Alcotest.(check int) "capacity" 4 (Obs.Sink.Ring.capacity r);
  Obs.Sink.Ring.clear r;
  Alcotest.(check (list int)) "clear empties" [] (Obs.Sink.Ring.to_list r);
  Obs.Sink.Ring.push r 42;
  Alcotest.(check (list int)) "usable after clear" [ 42 ] (Obs.Sink.Ring.to_list r)

(* ------------------------------------------------------ JSON round-trip *)

let every_variant : Event.t list =
  let t = 1234.56789 in
  [
    { time = t; body = Event.Send { src = 1; dst = 2; cls = "lookup"; seq = Some 7 } };
    { time = t; body = Event.Send { src = 1; dst = 2; cls = "join"; seq = None } };
    { time = t; body = Event.Recv { src = 3; dst = 4; cls = "rt-probes" } };
    {
      time = t;
      body =
        Event.Drop { src = 5; dst = 6; cls = "lookup"; seq = Some 9; reason = Event.Loss };
    };
    {
      time = t;
      body =
        Event.Drop
          { src = 5; dst = 6; cls = "join"; seq = None; reason = Event.Dead_destination };
    };
    {
      time = t;
      body =
        Event.Drop
          { src = 5; dst = 6; cls = "lookup"; seq = Some 10; reason = Event.Congested };
    };
    { time = t; body = Event.Node_join { addr = 11 } };
    { time = t; body = Event.Node_crash { addr = 12 } };
    {
      time = t;
      body =
        Event.Lookup_hop { seq = 3; addr = 13; stage = Event.Leafset; hops = 2; retx = true };
    };
    {
      time = t;
      body =
        Event.Lookup_hop { seq = 4; addr = 14; stage = Event.Table; hops = 0; retx = false };
    };
    {
      time = t;
      body =
        Event.Lookup_hop { seq = 5; addr = 15; stage = Event.Closest; hops = 1; retx = false };
    };
    {
      time = t;
      body =
        Event.Drop
          { src = 7; dst = 8; cls = "lookup"; seq = Some 11; reason = Event.Faulted };
    };
    { time = t; body = Event.Fault { label = "mass-crash"; action = "crash 25%" } };
    { time = t; body = Event.Hop_ack { addr = 16; dst = 17; rtt = 0.042 } };
    { time = t; body = Event.Ack_timeout { addr = 18; dst = 19; waited = 1.5; reroutes = 2 } };
    { time = t; body = Event.Probe { addr = 20; target = 21; kind = "leafset" } };
    { time = t; body = Event.Suspected { addr = 22; target = 23; backoff = 4.0 } };
    { time = t; body = Event.Unsuspected { addr = 22; target = 23 } };
    { time = t; body = Event.Lookup_retry { seq = 6; addr = 24; attempt = 1 } };
    { time = t; body = Event.Queue { addr = 25; cls = "lookup"; delay = 0.012; occ = 3 } };
    {
      time = t;
      body =
        Event.Drop { src = 9; dst = 10; cls = "leafset"; seq = None; reason = Event.Node_fault };
    };
    { time = t; body = Event.Progress_suspect { addr = 26; suspect = 27; seq = 12; hops = 3 } };
    { time = t; body = Event.Route_diverted { addr = 28; suspect = 29; seq = 13; attempt = 2 } };
    {
      time = t;
      body =
        Event.Poison_rejected
          { addr = 30; claimed = "d0000000000000000000000000000000"; peer = 31 };
    };
    { time = t; body = Event.Join_deferred { addr = 32; joiner = 33 } };
  ]

(* exhaustive on purpose: a new event kind or drop reason fails to
   compile here until [every_variant] gets a row for it *)
let kind_rank (ev : Event.t) =
  match ev.Event.body with
  | Event.Send _ -> 0
  | Recv _ -> 1
  | Drop _ -> 2
  | Node_join _ -> 3
  | Node_crash _ -> 4
  | Lookup_hop _ -> 5
  | Hop_ack _ -> 6
  | Ack_timeout _ -> 7
  | Probe _ -> 8
  | Fault _ -> 9
  | Suspected _ -> 10
  | Unsuspected _ -> 11
  | Lookup_retry _ -> 12
  | Queue _ -> 13
  | Progress_suspect _ -> 14
  | Route_diverted _ -> 15
  | Poison_rejected _ -> 16
  | Join_deferred _ -> 17

let reason_rank = function
  | Event.Loss -> 0
  | Dead_destination -> 1
  | Faulted -> 2
  | Node_fault -> 3
  | Congested -> 4

let test_jsonl_roundtrip () =
  let ranks f = List.sort_uniq compare (List.filter_map f every_variant) in
  Alcotest.(check (list int)) "every kind" (List.init 18 Fun.id)
    (ranks (fun ev -> Some (kind_rank ev)));
  Alcotest.(check int) "18 kind names" 18
    (List.length (List.sort_uniq compare (List.map Event.kind_name every_variant)));
  Alcotest.(check (list int)) "every drop reason" (List.init 5 Fun.id)
    (ranks (fun ev ->
         match ev.Event.body with
         | Event.Drop { reason; _ } -> Some (reason_rank reason)
         | _ -> None));
  List.iter
    (fun ev ->
      let line = Obs.Json.to_string (Event.to_json ev) in
      match Obs.Json.of_string line with
      | Error e -> Alcotest.failf "unparseable %S: %s" line e
      | Ok j -> (
          match Event.of_json j with
          | Error e -> Alcotest.failf "bad event %S: %s" line e
          | Ok ev' ->
              Alcotest.(check bool)
                (Printf.sprintf "round-trips %s" (Event.kind_name ev))
                true (ev = ev')))
    every_variant

let test_jsonl_file_sink () =
  let path = Filename.temp_file "obs" ".jsonl" in
  let trace = Obs.Trace.create (Obs.Sink.jsonl_file path) in
  List.iter (Obs.Trace.emit trace) every_variant;
  Obs.Trace.close trace;
  let ic = open_in path in
  let back = ref [] in
  (try
     while true do
       let line = input_line ic in
       match Obs.Json.of_string line with
       | Ok j -> (
           match Event.of_json j with
           | Ok ev -> back := ev :: !back
           | Error e -> Alcotest.failf "bad line %S: %s" line e)
       | Error e -> Alcotest.failf "bad json %S: %s" line e
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "file round-trips all variants" true
    (List.rev !back = every_variant)

(* ------------------------------------------------ hop-path reconstruction *)

let traced_flat_config ?(lookup_rate = 0.0) () =
  {
    Sim.default_config with
    topology = Sim.Flat 0.02;
    lookup_rate;
    warmup = 0.0;
    window = 60.0;
    tracing = Sim.Trace_memory 200_000;
  }

let test_hop_path_3_nodes () =
  let live = Live.create (traced_flat_config ()) ~n_endpoints:8 in
  for i = 0 to 2 do
    Live.spawn_at live ~time:(float_of_int i *. 5.0) ()
  done;
  Live.run_until live 120.0;
  Alcotest.(check int) "3 nodes active" 3 (Live.node_count live);
  let nodes = Live.active_nodes live in
  let origin = List.hd nodes in
  (* route to another node's exact id: that node is the key's root *)
  let target =
    List.find
      (fun n -> (Node.me n).Peer.addr <> (Node.me origin).Peer.addr)
      nodes
  in
  let key = (Node.me target).Peer.id in
  let seq = Live.lookup live origin ~key in
  Live.run_until live 130.0;
  let events = Obs.Trace.events (Live.trace live) in
  let path = Obs.Hoppath.find events ~seq in
  Alcotest.(check bool) "path non-empty" true (path <> []);
  let first = List.hd path and last = List.nth path (List.length path - 1) in
  Alcotest.(check int) "starts at the origin" (Node.me origin).Peer.addr
    first.Obs.Hoppath.addr;
  Alcotest.(check int) "ends at the key's root" (Node.me target).Peer.addr
    last.Obs.Hoppath.addr;
  Alcotest.(check int) "origin counts zero hops" 0 first.Obs.Hoppath.hops;
  (* hop counters increase along the reconstructed path *)
  let rec ordered = function
    | a :: (b :: _ as rest) ->
        a.Obs.Hoppath.hops < b.Obs.Hoppath.hops
        && a.Obs.Hoppath.time <= b.Obs.Hoppath.time
        && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "hops and time increase" true (ordered path);
  (* the same path comes back through of_events *)
  let all = Obs.Hoppath.of_events events in
  match List.find_opt (fun p -> p.Obs.Hoppath.seq = seq) all with
  | None -> Alcotest.fail "lookup missing from of_events"
  | Some p -> Alcotest.(check bool) "of_events agrees with find" true (p.path = path)

(* --------------------------------------------------------- null sink *)

let run_counters config =
  let live = Live.create config ~n_endpoints:16 in
  for i = 0 to 9 do
    Live.spawn_at live ~time:(float_of_int i *. 5.0) ()
  done;
  Live.run_until live 600.0;
  let net = Live.net live in
  let summary =
    Collector.summary ~since:0.0 ~until:infinity ~drain:0.0 (Live.collector live)
  in
  (Simkit.Engine.stats (Live.engine live), Netsim.Net.stats net, summary)

let test_null_sink_sanity () =
  (* the disabled trace must not change behaviour: identical engine,
     network and collector numbers with tracing off and on *)
  let e_off, n_off, s_off = run_counters (traced_flat_config ~lookup_rate:0.05 ()) in
  let e_on, n_on, s_on =
    run_counters
      { (traced_flat_config ~lookup_rate:0.05 ()) with tracing = Sim.Trace_off }
  in
  Alcotest.(check bool) "engine stats identical" true (e_off = e_on);
  Alcotest.(check bool) "net stats identical" true (n_off = n_on);
  Alcotest.(check bool) "summaries identical" true (s_off = s_on);
  Alcotest.(check bool) "some traffic flowed" true (n_on.Netsim.Net.sent > 0);
  (* emitting into the disabled trace is a no-op *)
  Alcotest.(check bool) "disabled trace off" false (Obs.Trace.enabled Obs.Trace.disabled);
  Obs.Trace.emit Obs.Trace.disabled (List.hd every_variant);
  Alcotest.(check (list pass)) "disabled trace holds nothing" []
    (Obs.Trace.events Obs.Trace.disabled)

(* ----------------------------------------------------- engine counters *)

let test_engine_counters () =
  let e = Simkit.Engine.create () in
  let fired = ref 0 in
  let id1 = Simkit.Engine.schedule e ~delay:1.0 (fun () -> incr fired) in
  let _id2 = Simkit.Engine.schedule e ~delay:2.0 (fun () -> incr fired) in
  let id3 = Simkit.Engine.schedule e ~delay:3.0 (fun () -> incr fired) in
  Simkit.Engine.cancel e id3;
  Simkit.Engine.run e ~until:10.0;
  let s = Simkit.Engine.stats e in
  Alcotest.(check int) "scheduled" 3 s.Simkit.Engine.scheduled;
  Alcotest.(check int) "fired" 2 s.Simkit.Engine.fired;
  Alcotest.(check int) "cancelled" 1 s.Simkit.Engine.cancelled;
  Alcotest.(check int) "pending" 0 s.Simkit.Engine.pending;
  Alcotest.(check int) "callbacks ran" 2 !fired;
  Alcotest.(check bool) "heap high-water mark" true (s.Simkit.Engine.heap_hwm >= 3);
  (* cancelling a fired event is a no-op, not a counter corruption *)
  Simkit.Engine.cancel e id1;
  let s' = Simkit.Engine.stats e in
  Alcotest.(check int) "cancel after fire ignored" 1 s'.Simkit.Engine.cancelled;
  Alcotest.(check int) "pending not driven negative" 0 s'.Simkit.Engine.pending

let test_registry () =
  let r = Obs.Registry.create () in
  let x = ref 5 in
  Obs.Registry.gauge_i r "x" (fun () -> !x);
  Obs.Registry.gauge_f r "y" (fun () -> 2.5);
  x := 7;
  Alcotest.(check bool) "dump samples live, in order" true
    (Obs.Registry.dump r = [ ("x", Obs.Registry.Int 7); ("y", Obs.Registry.Float 2.5) ]);
  Alcotest.(check bool) "find" true (Obs.Registry.find r "x" = Some (Obs.Registry.Int 7));
  Alcotest.check_raises "re-register raises"
    (Invalid_argument "Registry.register: duplicate metric \"x\"") (fun () ->
      Obs.Registry.gauge_i r "x" (fun () -> 0));
  Alcotest.(check bool) "original closure untouched" true
    (Obs.Registry.find r "x" = Some (Obs.Registry.Int 7))

(* ------------------------------------- trace counts vs collector (E2E) *)

let test_trace_matches_collector () =
  (* a churning flat-topology run: per-class send counts seen by the
     trace must equal the collector's control/lookup aggregates *)
  let live = Live.create (traced_flat_config ~lookup_rate:0.05 ()) ~n_endpoints:32 in
  for i = 0 to 19 do
    Live.spawn_at live ~time:(float_of_int i *. 5.0) ()
  done;
  Live.run_until live 900.0;
  let events = Obs.Trace.events (Live.trace live) in
  let count_class name =
    List.fold_left
      (fun acc ev ->
        match ev.Event.body with
        | Event.Send { cls; _ } when cls = name -> acc + 1
        | _ -> acc)
      0 events
  in
  let summary =
    Collector.summary ~since:0.0 ~until:infinity ~drain:0.0 (Live.collector live)
  in
  let traced_control =
    List.fold_left
      (fun acc c -> if M.is_control c then acc + count_class (M.class_name c) else acc)
      0 M.all_classes
  in
  let traced_lookup = count_class (M.class_name M.C_lookup) in
  Alcotest.(check bool) "events captured" true (events <> []);
  Alcotest.(check int) "control sends match collector"
    (int_of_float summary.Collector.control_msgs)
    traced_control;
  Alcotest.(check int) "lookup sends match collector"
    (int_of_float summary.Collector.lookup_msgs)
    traced_lookup;
  (* and both agree with the network's own per-class counters *)
  List.iter
    (fun c ->
      let name = M.class_name c in
      Alcotest.(check int)
        (Printf.sprintf "net counter matches trace for %s" name)
        (Netsim.Net.sent_in_class (Live.net live) name)
        (count_class name))
    M.all_classes

(* ------------------------------------------------------------- profile *)

let test_profile_disabled_noop () =
  Obs.Profile.reset ();
  let ph = Obs.Profile.phase "test.noop" in
  Alcotest.(check bool) "off by default after reset" false (Obs.Profile.enabled ());
  Obs.Profile.enter ph;
  Obs.Profile.leave ph;
  let r = Obs.Profile.report () in
  Alcotest.(check int64) "no wall time" 0L r.Obs.Profile.wall_ns;
  List.iter
    (fun e -> Alcotest.(check int) "no calls recorded" 0 e.Obs.Profile.calls)
    r.Obs.Profile.entries;
  Obs.Profile.reset ()

let spin () =
  (* burn a little real time so self_ns is visibly positive *)
  let x = ref 0 in
  for i = 1 to 200_000 do
    x := !x + i
  done;
  ignore !x

let test_profile_accounting () =
  Obs.Profile.reset ();
  let pa = Obs.Profile.phase "test.outer" and pb = Obs.Profile.phase "test.inner" in
  Alcotest.(check int) "phase ids idempotent" pa (Obs.Profile.phase "test.outer");
  Obs.Profile.set_enabled true;
  Obs.Profile.enter pa;
  spin ();
  Obs.Profile.enter pb;
  spin ();
  Obs.Profile.leave pb;
  spin ();
  Obs.Profile.leave pa;
  Obs.Profile.set_enabled false;
  let r = Obs.Profile.report () in
  let entry name =
    List.find (fun e -> e.Obs.Profile.name = name) r.Obs.Profile.entries
  in
  let a = entry "test.outer" and b = entry "test.inner" in
  Alcotest.(check int) "outer calls" 1 a.Obs.Profile.calls;
  Alcotest.(check int) "inner calls" 1 b.Obs.Profile.calls;
  Alcotest.(check bool) "self positive" true (a.Obs.Profile.self_ns > 0L);
  Alcotest.(check bool) "inclusive >= self" true
    (a.Obs.Profile.total_ns >= a.Obs.Profile.self_ns);
  Alcotest.(check bool) "outer inclusive covers inner" true
    (a.Obs.Profile.total_ns >= b.Obs.Profile.total_ns);
  (* self times plus the unattributed remainder partition the wall *)
  let sum_self =
    List.fold_left
      (fun acc e -> Int64.add acc e.Obs.Profile.self_ns)
      0L r.Obs.Profile.entries
  in
  Alcotest.(check int64) "self + unattributed = wall" r.Obs.Profile.wall_ns
    (Int64.add sum_self r.Obs.Profile.unattributed_ns);
  Alcotest.(check bool) "wall covers outer" true
    (r.Obs.Profile.wall_ns >= a.Obs.Profile.total_ns);
  (* the json rendering carries every phase *)
  (match Obs.Json.member "phases" (Obs.Profile.report_to_json r) with
  | Some (Obs.Json.List phases) ->
      Alcotest.(check bool) "json phases present" true (List.length phases >= 2)
  | _ -> Alcotest.fail "report_to_json: no phases list");
  Obs.Profile.reset ()

let test_profile_reentrant () =
  Obs.Profile.reset ();
  let p = Obs.Profile.phase "test.recur" in
  Obs.Profile.set_enabled true;
  Obs.Profile.enter p;
  Obs.Profile.enter p;
  Obs.Profile.leave p;
  Obs.Profile.leave p;
  Obs.Profile.set_enabled false;
  let r = Obs.Profile.report () in
  let e = List.find (fun e -> e.Obs.Profile.name = "test.recur") r.Obs.Profile.entries in
  Alcotest.(check int) "both entries counted" 2 e.Obs.Profile.calls;
  Alcotest.(check bool) "inclusive not double-counted" true
    (e.Obs.Profile.total_ns <= r.Obs.Profile.wall_ns);
  Obs.Profile.reset ()

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "ring buffer eviction order" `Quick test_ring_eviction;
        Alcotest.test_case "jsonl round-trip, every variant" `Quick test_jsonl_roundtrip;
        Alcotest.test_case "jsonl file sink round-trip" `Quick test_jsonl_file_sink;
        Alcotest.test_case "hop path of a 3-node lookup" `Quick test_hop_path_3_nodes;
        Alcotest.test_case "null sink changes nothing" `Quick test_null_sink_sanity;
        Alcotest.test_case "engine counters" `Quick test_engine_counters;
        Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "trace counts match collector" `Quick
          test_trace_matches_collector;
      ] );
  ]
