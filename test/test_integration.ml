(* End-to-end tests of whole overlays under the packet simulator:
   formation, routing correctness, consistency under churn, failure
   recovery, per-hop-ack reliability, self-tuning behaviour. *)

module Sim = Harness.Sim
module Live = Sim.Live
module Node = Mspastry.Node
module Nodeid = Pastry.Nodeid
module Peer = Pastry.Peer
module Collector = Overlay_metrics.Collector
module Rng = Repro_util.Rng

let flat_config ?(seed = 42) ?(lookup_rate = 0.0) ?(loss = 0.0) () =
  {
    Sim.default_config with
    topology = Sim.Flat 0.02;
    seed;
    lookup_rate;
    loss_rate = loss;
    warmup = 0.0;
    window = 60.0;
  }

(* spawn [n] nodes staggered [gap] seconds apart, run to quiescence *)
let build_overlay ?(seed = 42) ?(gap = 5.0) ?(settle = 120.0) n =
  let live = Live.create (flat_config ~seed ()) ~n_endpoints:(max 8 n) in
  for i = 0 to n - 1 do
    Live.spawn_at live ~time:(float_of_int i *. gap) ()
  done;
  Live.run_until live ((float_of_int n *. gap) +. settle);
  live

let test_two_nodes () =
  let live = build_overlay 2 in
  Alcotest.(check int) "both active" 2 (Live.node_count live);
  let nodes = Live.active_nodes live in
  List.iter
    (fun n ->
      Alcotest.(check bool) "leafset has the other node" true
        (Pastry.Leafset.size (Node.leafset n) = 1))
    nodes

let test_overlay_forms () =
  let live = build_overlay 30 in
  Alcotest.(check int) "all active" 30 (Live.node_count live);
  Alcotest.(check int) "no join failures" 0 (Live.join_failures live)

let test_ring_consistency () =
  (* every node's immediate ring neighbours match the ground truth *)
  let live = build_overlay 25 in
  let nodes = Live.active_nodes live in
  let ids =
    List.sort Nodeid.compare (List.map (fun n -> (Node.me n).Peer.id) nodes)
  in
  let arr = Array.of_list ids in
  let n = Array.length arr in
  let succ_of id =
    let rec find i = if i >= n then arr.(0) else if Nodeid.compare arr.(i) id > 0 then arr.(i) else find (i + 1) in
    find 0
  in
  List.iter
    (fun node ->
      match Pastry.Leafset.right_neighbor (Node.leafset node) with
      | Some rn ->
          let expected = succ_of (Node.me node).Peer.id in
          Alcotest.(check string) "right neighbor is ring successor"
            (Nodeid.to_hex expected) (Nodeid.to_hex rn.Peer.id)
      | None -> Alcotest.fail "missing right neighbor")
    nodes

let test_routing_correctness () =
  let live = build_overlay 30 in
  let nodes = Array.of_list (Live.active_nodes live) in
  let rng = Rng.create 7 in
  for _ = 1 to 200 do
    let src = nodes.(Rng.int rng (Array.length nodes)) in
    ignore (Live.lookup live src ~key:(Nodeid.random rng))
  done;
  let horizon = Simkit.Engine.now (Live.engine live) +. 30.0 in
  Live.run_until live horizon;
  let s = Collector.summary ~until:horizon ~drain:0.0 (Live.collector live) in
  Alcotest.(check int) "no losses" 0 s.Collector.lookups_lost;
  Alcotest.(check int) "no incorrect deliveries" 0 s.Collector.incorrect_deliveries;
  Alcotest.(check int) "all delivered" 200 s.Collector.lookups_delivered

let test_lookup_to_own_key () =
  let live = build_overlay 10 in
  let nodes = Live.active_nodes live in
  let node = List.hd nodes in
  ignore (Live.lookup live node ~key:(Node.me node).Peer.id);
  let horizon = Simkit.Engine.now (Live.engine live) +. 10.0 in
  Live.run_until live horizon;
  let s = Collector.summary ~until:horizon ~drain:0.0 (Live.collector live) in
  Alcotest.(check int) "self key delivered locally" 0 s.Collector.lookups_lost;
  Alcotest.(check int) "correct" 0 s.Collector.incorrect_deliveries

let test_crash_recovery () =
  let live = build_overlay 24 in
  let nodes = Array.of_list (Live.active_nodes live) in
  (* kill 5 nodes at once *)
  for i = 0 to 4 do
    Live.crash_node live nodes.(i)
  done;
  (* allow detection (Tls + To + probes) plus repair *)
  let horizon = Simkit.Engine.now (Live.engine live) +. 120.0 in
  Live.run_until live horizon;
  Alcotest.(check int) "survivors active" 19 (Live.node_count live);
  (* survivors' leaf sets must not contain dead nodes *)
  let dead = Array.sub nodes 0 5 in
  List.iter
    (fun node ->
      Array.iter
        (fun d ->
          Alcotest.(check bool) "dead node evicted" false
            (Pastry.Leafset.mem (Node.leafset node) (Node.me d).Peer.id))
        dead)
    (Live.active_nodes live);
  (* and routing still works *)
  let rng = Rng.create 9 in
  let survivors = Array.of_list (Live.active_nodes live) in
  for _ = 1 to 100 do
    let src = survivors.(Rng.int rng (Array.length survivors)) in
    ignore (Live.lookup live src ~key:(Nodeid.random rng))
  done;
  let horizon2 = Simkit.Engine.now (Live.engine live) +. 30.0 in
  Live.run_until live horizon2;
  let s = Collector.summary ~until:horizon2 ~drain:0.0 (Live.collector live) in
  Alcotest.(check int) "no incorrect deliveries" 0 s.Collector.incorrect_deliveries;
  Alcotest.(check int) "no losses" 0 s.Collector.lookups_lost

let test_mass_failure_recovery () =
  (* half the overlay dies at once: generalized leaf-set repair must
     rebuild the ring from routing-table state *)
  let live = build_overlay 32 in
  let nodes = Array.of_list (Live.active_nodes live) in
  Array.sort (fun a b -> Nodeid.compare (Node.me a).Peer.id (Node.me b).Peer.id) nodes;
  (* kill a contiguous arc: the harshest case for leaf sets *)
  for i = 0 to 15 do
    Live.crash_node live nodes.(i)
  done;
  let horizon = Simkit.Engine.now (Live.engine live) +. 300.0 in
  Live.run_until live horizon;
  let survivors = Live.active_nodes live in
  Alcotest.(check int) "16 survivors" 16 (List.length survivors);
  (* ring reconverged *)
  let ids = List.sort Nodeid.compare (List.map (fun n -> (Node.me n).Peer.id) survivors) in
  let arr = Array.of_list ids in
  let n = Array.length arr in
  let succ_of id =
    let rec find i = if i >= n then arr.(0) else if Nodeid.compare arr.(i) id > 0 then arr.(i) else find (i + 1) in
    find 0
  in
  List.iter
    (fun node ->
      match Pastry.Leafset.right_neighbor (Node.leafset node) with
      | Some rn ->
          Alcotest.(check string) "ring repaired"
            (Nodeid.to_hex (succ_of (Node.me node).Peer.id))
            (Nodeid.to_hex rn.Peer.id)
      | None -> Alcotest.fail "missing right neighbor after repair")
    survivors

let test_concurrent_joins () =
  let live = Live.create (flat_config ()) ~n_endpoints:40 in
  (* 5 staggered seed nodes, then 20 joining in the same second *)
  for i = 0 to 4 do
    Live.spawn_at live ~time:(float_of_int i *. 5.0) ()
  done;
  for _ = 0 to 19 do
    Live.spawn_at live ~time:30.0 ()
  done;
  Live.run_until live 240.0;
  Alcotest.(check int) "all 25 active" 25 (Live.node_count live);
  Alcotest.(check int) "no join failures" 0 (Live.join_failures live)

let test_churn_consistency () =
  (* sustained churn with no link loss: the paper's core claim is zero
     incorrect deliveries *)
  let trace =
    Churn.Trace.poisson (Rng.create 5) ~n_avg:60 ~session_mean:900.0 ~duration:3600.0
  in
  let config =
    { (flat_config ~lookup_rate:0.05 ()) with Sim.warmup = 600.0; drain = 60.0 }
  in
  let s = Live.summary (Sim.run config ~trace) in
  Alcotest.(check int) "zero incorrect deliveries" 0 s.Collector.incorrect_deliveries;
  Alcotest.(check bool) "low loss" true (s.Collector.loss_rate < 0.01);
  Alcotest.(check bool) "lookups actually ran" true (s.Collector.lookups_sent > 500)

let test_link_loss_reliability () =
  (* 3% link loss: per-hop acks keep end-to-end loss tiny *)
  let trace =
    Churn.Trace.poisson (Rng.create 6) ~n_avg:40 ~session_mean:1800.0 ~duration:1800.0
  in
  let config =
    { (flat_config ~lookup_rate:0.05 ~loss:0.03 ()) with Sim.warmup = 300.0 }
  in
  let s = Live.summary (Sim.run config ~trace) in
  Alcotest.(check bool) "loss under 1%" true (s.Collector.loss_rate < 0.01)

let test_acks_matter_under_loss () =
  (* same run with per-hop acks disabled loses far more *)
  let trace =
    Churn.Trace.poisson (Rng.create 6) ~n_avg:40 ~session_mean:1800.0 ~duration:1800.0
  in
  let base = { (flat_config ~lookup_rate:0.05 ~loss:0.03 ()) with Sim.warmup = 300.0 } in
  let with_acks = Live.summary (Sim.run base ~trace) in
  let without =
    Live.summary
      (Sim.run
         {
           base with
           Sim.pastry = { base.Sim.pastry with Mspastry.Config.per_hop_acks = false };
         }
         ~trace)
  in
  Alcotest.(check bool) "acks reduce loss" true
    (with_acks.Collector.loss_rate < without.Collector.loss_rate /. 2.0)

let test_self_tuning_converges () =
  let trace =
    Churn.Trace.poisson (Rng.create 8) ~n_avg:60 ~session_mean:1200.0 ~duration:2700.0
  in
  let config = { (flat_config ~lookup_rate:0.01 ()) with Sim.warmup = 600.0 } in
  let live = Live.create config ~n_endpoints:128 in
  let by_node = Hashtbl.create 64 in
  Array.iter
    (fun ev ->
      let time = ev.Churn.Trace.time in
      match ev.Churn.Trace.kind with
      | Churn.Trace.Join ->
          ignore
            (Simkit.Engine.schedule_at (Live.engine live) ~time (fun () ->
                 Hashtbl.replace by_node ev.Churn.Trace.node (Live.spawn live ())))
      | Churn.Trace.Leave ->
          ignore
            (Simkit.Engine.schedule_at (Live.engine live) ~time (fun () ->
                 match Hashtbl.find_opt by_node ev.Churn.Trace.node with
                 | Some node -> Live.crash_node live node
                 | None -> ())))
    (Churn.Trace.events trace);
  Live.run_until live 2700.0;
  let nodes = Live.active_nodes live in
  Alcotest.(check bool) "population alive" true (List.length nodes > 20);
  (* most nodes should have tuned Trt below the cap: true mu ~ 8e-4 *)
  let tuned =
    List.filter (fun n -> Node.current_trt n < Mspastry.Config.t_rt_max) nodes
  in
  Alcotest.(check bool) "majority tuned below cap" true
    (List.length tuned * 2 > List.length nodes);
  (* and their mu estimates are within an order of magnitude of truth *)
  let mus = List.filter_map (fun n ->
      let m = Node.estimated_mu n in
      if m > 0.0 then Some m else None) nodes in
  let mean_mu = List.fold_left ( +. ) 0.0 mus /. float_of_int (max 1 (List.length mus)) in
  let true_mu = 1.0 /. 1200.0 in
  Alcotest.(check bool) "mu within 10x" true
    (mean_mu > true_mu /. 10.0 && mean_mu < true_mu *. 10.0)

let test_suppression_reduces_probes () =
  let run rate =
    let trace =
      Churn.Trace.poisson (Rng.create 10) ~n_avg:40 ~session_mean:1800.0 ~duration:1800.0
    in
    let config = { (flat_config ~lookup_rate:rate ()) with Sim.warmup = 600.0 } in
    List.fold_left
      (fun acc (c, v) ->
        match c with Mspastry.Message.C_rt_probe -> acc +. v | _ -> acc)
      0.0 (Live.summary (Sim.run config ~trace)).Collector.control_by_class
  in
  let quiet = run 0.0 in
  let busy = run 0.5 in
  Alcotest.(check bool) "busy overlay sends fewer RT probes" true (busy < quiet)

let test_graceful_leaves () =
  (* all departures graceful: consistency holds and leaf-set repair needs
     fewer probe timeouts than the crash-only run *)
  let trace =
    Churn.Trace.poisson (Rng.create 5) ~n_avg:60 ~session_mean:900.0 ~duration:3600.0
  in
  let base = { (flat_config ~lookup_rate:0.05 ()) with Sim.warmup = 600.0 } in
  let crashes = Live.summary (Sim.run base ~trace) in
  let graceful =
    Live.summary (Sim.run { base with Sim.graceful_leave_fraction = 1.0 } ~trace)
  in
  Alcotest.(check int) "graceful: zero incorrect" 0
    graceful.Collector.incorrect_deliveries;
  Alcotest.(check bool) "graceful: low loss" true (graceful.Collector.loss_rate < 0.01);
  Alcotest.(check bool) "announcements do not raise control traffic" true
    (graceful.Collector.control_per_node_per_s
    < crashes.Collector.control_per_node_per_s *. 1.25)

let test_simulation_determinism () =
  let run () =
    let trace =
      Churn.Trace.poisson (Rng.create 11) ~n_avg:40 ~session_mean:1200.0 ~duration:1800.0
    in
    let config = { (flat_config ~lookup_rate:0.05 ()) with Sim.warmup = 300.0 } in
    Live.summary (Sim.run config ~trace)
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same lookups" a.Collector.lookups_sent b.Collector.lookups_sent;
  Alcotest.(check (float 1e-12)) "same rdp" a.Collector.rdp_mean b.Collector.rdp_mean;
  Alcotest.(check (float 1e-12)) "same control" a.Collector.control_msgs
    b.Collector.control_msgs;
  Alcotest.(check int) "same joins" a.Collector.joins b.Collector.joins

(* an environment whose node never hears or sends anything *)
let inert_env =
  {
    Node.now = (fun () -> 0.0);
    send = (fun ~dst:_ _ -> ());
    schedule = (fun ~delay:_ _ -> Simkit.Engine.schedule (Simkit.Engine.create ()) ~delay:0.0 (fun () -> ()));
    cancel = (fun _ -> ());
    rng = Rng.create 1;
    deliver = (fun _ -> ());
    forward = (fun ~prev:_ _ -> Node.Continue);
    on_active = (fun () -> ());
    on_join_failed = (fun () -> ());
    on_suspicion = (fun ~target:_ -> ());
    on_progress_suspect = (fun ~target:_ -> ());
    on_poison_reject = (fun ~target:_ -> ());
    load = (fun () -> 0);
    trace = Repro_obs.Trace.disabled;
  }

let test_node_env_misuse () =
  (* config validation surfaces through Node.create *)
  let bad = { Mspastry.Config.default with Mspastry.Config.b = 0 } in
  Alcotest.check_raises "invalid config"
    (Invalid_argument "Node.create: b must be in 1..8 (got 0)") (fun () ->
      ignore (Node.create ~cfg:bad ~env:inert_env ~id:(Nodeid.of_int 1) ~addr:0))

(* each range check of Config.validate: the first value out of range is
   an [Error] and makes Node.create raise, the boundary value is [Ok] *)
let test_config_validate_fields () =
  let d = Mspastry.Config.default in
  List.iter
    (fun (name, bad, boundary) ->
      Alcotest.(check bool) (name ^ ": out of range") true
        (Result.is_error (Mspastry.Config.validate bad));
      Alcotest.(check bool) (name ^ ": boundary") true
        (Mspastry.Config.validate boundary = Ok ());
      match Node.create ~cfg:bad ~env:inert_env ~id:(Nodeid.of_int 1) ~addr:0 with
      | _ -> Alcotest.failf "%s: Node.create accepted the config" name
      | exception Invalid_argument _ -> ())
    Mspastry.Config.
      [
        ("b below 1", { d with b = 0 }, { d with b = 1 });
        ("b above 8", { d with b = 9 }, { d with b = 8 });
        ("l below 2", { d with l = 0 }, { d with l = 2 });
        ("l odd", { d with l = 3 }, { d with l = 4 });
        ("probe_volley below 1", { d with probe_volley = 0 }, { d with probe_volley = 1 });
        ("lr_target at 0", { d with lr_target = 0.0 }, { d with lr_target = Float.succ 0.0 });
        ("lr_target at 1", { d with lr_target = 1.0 }, { d with lr_target = Float.pred 1.0 });
        ( "max_hop_reroutes below 0",
          { d with max_hop_reroutes = -1 },
          { d with max_hop_reroutes = 0 } );
        ("root_retries below 0", { d with root_retries = -1 }, { d with root_retries = 0 });
        ( "e2e_lookup_retries below 0",
          { d with e2e_lookup_retries = -1 },
          { d with e2e_lookup_retries = 0 } );
        ( "join_rate_limit below 0",
          { d with join_rate_limit = -1 },
          { d with join_rate_limit = 0 } );
      ]

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "two-node overlay" `Quick test_two_nodes;
        Alcotest.test_case "30-node overlay forms" `Quick test_overlay_forms;
        Alcotest.test_case "ring consistency" `Quick test_ring_consistency;
        Alcotest.test_case "routing correctness" `Quick test_routing_correctness;
        Alcotest.test_case "lookup to own key" `Quick test_lookup_to_own_key;
        Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
        Alcotest.test_case "mass failure recovery" `Slow test_mass_failure_recovery;
        Alcotest.test_case "concurrent joins" `Quick test_concurrent_joins;
        Alcotest.test_case "consistency under churn" `Slow test_churn_consistency;
        Alcotest.test_case "reliability under link loss" `Slow test_link_loss_reliability;
        Alcotest.test_case "acks matter under loss" `Slow test_acks_matter_under_loss;
        Alcotest.test_case "self-tuning converges" `Slow test_self_tuning_converges;
        Alcotest.test_case "suppression reduces probes" `Slow test_suppression_reduces_probes;
        Alcotest.test_case "graceful leaves" `Slow test_graceful_leaves;
        Alcotest.test_case "simulation determinism" `Slow test_simulation_determinism;
        Alcotest.test_case "config validation via node" `Quick test_node_env_misuse;
        Alcotest.test_case "config validation field by field" `Quick
          test_config_validate_fields;
      ] );
  ]
