(* Harness plumbing: topology factory, Live session bookkeeping, lookup
   sequence allocation, graceful-vs-crash departures. *)

module Sim = Harness.Sim
module Live = Sim.Live
module Node = Mspastry.Node
module Rng = Repro_util.Rng

let test_topology_factory () =
  let rng = Rng.create 3 in
  List.iter
    (fun (kind, name) ->
      let t = Sim.make_topology kind ~rng ~n_endpoints:16 in
      Alcotest.(check string) "name" name (Topology.name t);
      Alcotest.(check int) "endpoints" 16 (Topology.n_endpoints t))
    [
      (Sim.Gatech, "gatech");
      (Sim.Mercator, "mercator");
      (Sim.Corpnet, "corpnet");
      (Sim.Flat 0.01, "constant");
    ]

let test_default_config_valid () =
  let c = Sim.default_config in
  Alcotest.(check bool) "pastry config valid" true
    (Mspastry.Config.validate c.Sim.pastry = Ok ());
  Alcotest.(check bool) "warmup before nothing" true (c.Sim.warmup > 0.0);
  Alcotest.(check bool) "no loss by default" true (c.Sim.loss_rate = 0.0)

let flat () =
  {
    Sim.default_config with
    topology = Sim.Flat 0.02;
    lookup_rate = 0.0;
    warmup = 0.0;
    window = 60.0;
  }

let test_live_bookkeeping () =
  let live = Live.create (flat ()) ~n_endpoints:16 in
  Alcotest.(check int) "empty" 0 (Live.node_count live);
  let n1 = Live.spawn live () in
  Live.run_until live 10.0;
  Alcotest.(check int) "bootstrap active" 1 (Live.node_count live);
  let addr = (Node.me n1).Pastry.Peer.addr in
  (match Live.find_node live ~addr with
  | Some n -> Alcotest.(check bool) "find_node" true (n == n1)
  | None -> Alcotest.fail "node not found");
  Alcotest.(check bool) "unknown addr" true (Live.find_node live ~addr:999 = None);
  Live.crash_node live n1;
  Alcotest.(check int) "crash removes from oracle" 0 (Live.node_count live);
  Alcotest.(check bool) "crash removes registry" true (Live.find_node live ~addr = None);
  Alcotest.(check int) "created counter" 1 (Live.nodes_created live)

let test_alloc_lookup_sequences () =
  let live = Live.create (flat ()) ~n_endpoints:16 in
  let a = Live.alloc_lookup live and b = Live.alloc_lookup live in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check bool) "monotone" true (b > a)

let test_graceful_crash_node () =
  let live = Live.create (flat ()) ~n_endpoints:16 in
  let n1 = Live.spawn live () in
  Live.run_until live 5.0;
  let n2 = Live.spawn live () in
  Live.run_until live 60.0;
  Alcotest.(check int) "pair formed" 2 (Live.node_count live);
  (* graceful departure: the survivor evicts without probe timeouts *)
  Live.crash_node ~graceful:true live n2;
  Live.run_until live 62.0;
  Alcotest.(check bool) "survivor evicted the departed immediately" false
    (Pastry.Leafset.mem (Node.leafset n1) (Node.me n2).Pastry.Peer.id)

let test_spawn_at_schedules () =
  let live = Live.create (flat ()) ~n_endpoints:16 in
  Live.spawn_at live ~time:5.0 ();
  Live.spawn_at live ~time:10.0 ();
  Live.run_until live 4.0;
  Alcotest.(check int) "nothing yet" 0 (Live.node_count live);
  Live.run_until live 60.0;
  Alcotest.(check int) "both up" 2 (Live.node_count live)

(* a joiner whose endpoint is cut off exhausts its join retries: it is
   counted, unregistered, and gone from the registry, so [find_node] and
   the detector's ground truth no longer see it *)
let test_failed_join_leaves_registry () =
  let live = Live.create (flat ()) ~n_endpoints:16 in
  for i = 0 to 5 do
    Live.spawn_at live ~time:(float_of_int i *. 5.0) ()
  done;
  Live.run_until live 60.0;
  Live.inject live
    (Sim.Schedule.overlay ~time:60.0 ~duration:infinity
       (Sim.Netfault.blackhole ~symmetric:true ~links:(List.init 16 (fun e -> (6, e))) ()));
  let joiner = Live.spawn live () in
  Live.run_until live 300.0;
  Alcotest.(check int) "join failed" 1 (Live.join_failures live);
  Alcotest.(check bool) "joiner halted" false (Node.is_alive joiner);
  Alcotest.(check bool) "joiner gone from the registry" true
    (Live.find_node live ~addr:(Node.me joiner).Pastry.Peer.addr = None);
  Alcotest.(check int) "members unaffected" 6 (Live.node_count live)

let test_live_of_trace_runs () =
  let trace =
    Churn.Trace.poisson (Rng.create 2) ~n_avg:20 ~session_mean:600.0 ~duration:900.0
  in
  let live = Sim.live_of_trace (flat ()) ~trace in
  Live.run_until live 900.0;
  Alcotest.(check bool) "population formed" true (Live.node_count live > 5)

let test_manifest_roundtrip () =
  let path = Filename.temp_file "manifest" ".json" in
  let config = { (flat ()) with Sim.manifest_out = Some path; seed = 17 } in
  let trace =
    Churn.Trace.poisson (Rng.create 2) ~n_avg:10 ~session_mean:600.0 ~duration:300.0
  in
  let live = Sim.live_of_trace config ~trace in
  Live.run_until live 300.0;
  (* close writes the manifest because [manifest_out] is set *)
  Live.close live;
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Repro_obs.Json.of_string s with
  | Error e -> Alcotest.failf "manifest unparseable: %s" e
  | Ok j ->
      let module J = Repro_obs.Json in
      let str k = Option.bind (J.member k j) J.to_str in
      Alcotest.(check (option string)) "schema" (Some Harness.Manifest.schema)
        (str "schema");
      Alcotest.(check (option int)) "seed" (Some 17)
        (Option.bind (J.member "seed" j) J.to_int);
      List.iter
        (fun section ->
          if J.member section j = None then
            Alcotest.failf "manifest missing section %S" section)
        [ "git"; "config"; "counters"; "histograms"; "profile"; "engine" ];
      (* spot-check one value per nested section *)
      let deep path =
        List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path
      in
      Alcotest.(check bool) "engine fired counter present" true
        (Option.bind (deep [ "engine"; "fired" ]) J.to_int <> None);
      Alcotest.(check bool) "lookup hist summary present" true
        (Option.bind (deep [ "histograms"; "lookup_hops"; "count" ]) J.to_int
        <> None);
      Alcotest.(check bool) "config topology recorded" true
        (Option.bind (deep [ "config"; "topology" ]) J.to_str <> None)

(* a manifest's config names every settable value, defaults included,
   and the fault schedule that ran *)
let test_manifest_config_complete () =
  let module J = Repro_obs.Json in
  let slow = Sim.Schedule.fail_slow ~label:"slow" ~extra:2.0 ~time:60.0 ~duration:30.0 0.1 in
  let live = Live.create { (flat ()) with Sim.fault_schedule = [ slow ] } ~n_endpoints:8 in
  let config = J.member "config" (Live.manifest live) in
  let pastry = Option.bind config (J.member "pastry") in
  let keys = function Some (J.Obj kvs) -> List.map fst kvs | _ -> [] in
  Alcotest.(check (list string)) "every Mspastry.Config field"
    [
      "b"; "l"; "probe_volley"; "per_hop_acks"; "active_probing"; "lr_target";
      "exploit_structure"; "max_hop_reroutes"; "root_retries"; "e2e_lookup_retries";
      "backpressure"; "verify_gossip"; "progress_check"; "join_rate_limit";
    ]
    (keys pastry);
  Alcotest.(check (option bool)) "hardening printed while off" (Some false)
    (Option.bind (Option.bind pastry (J.member "verify_gossip")) J.to_bool);
  match Option.bind config (J.member "fault_schedule") with
  | Some (J.List [ e ]) ->
      Alcotest.(check (list string)) "event keys" [ "time"; "label"; "action" ] (keys (Some e));
      Alcotest.(check (option string)) "label" (Some "slow")
        (Option.bind (J.member "label" e) J.to_str);
      Alcotest.(check (option string)) "action described"
        (Some (Sim.Schedule.describe slow.Sim.Schedule.action))
        (Option.bind (J.member "action" e) J.to_str)
  | _ -> Alcotest.fail "expected the one scheduled fault"

let suite =
  [
    ( "harness",
      [
        Alcotest.test_case "topology factory" `Quick test_topology_factory;
        Alcotest.test_case "default config valid" `Quick test_default_config_valid;
        Alcotest.test_case "live bookkeeping" `Quick test_live_bookkeeping;
        Alcotest.test_case "lookup sequence allocation" `Quick test_alloc_lookup_sequences;
        Alcotest.test_case "graceful crash_node" `Quick test_graceful_crash_node;
        Alcotest.test_case "spawn_at schedules" `Quick test_spawn_at_schedules;
        Alcotest.test_case "failed join leaves the registry" `Quick
          test_failed_join_leaves_registry;
        Alcotest.test_case "live_of_trace" `Quick test_live_of_trace_runs;
        Alcotest.test_case "manifest round-trip" `Quick test_manifest_roundtrip;
        Alcotest.test_case "manifest config lists every settable value" `Quick
          test_manifest_config_complete;
      ] );
  ]
