(* Benchmark harness.

   Two parts:
   1. Bechamel micro-benchmarks of the performance-critical kernels
      (identifier arithmetic, routing state operations, the next-hop
      function, the event queue) — one [Test.make] per kernel.
   2. Regeneration of every table and figure in the paper's evaluation
      (§5) at [Quick] scale, via the shared experiment runners. Pass
      an experiment name (fig3..fig8, topology, ablation, selftuning,
      suppression, structure, all) to run a subset, and --size to scale
      up; `bench/main.exe micro` runs only the micro-benchmarks.

   With --json the micro run writes machine-readable results (ns/op per
   kernel plus whole-stack reference timings) to BENCH.json — override
   the path with `-o FILE`. `bin/statsdump --bench OLD NEW` diffs two
   such files and fails on regressions (the CI gate). *)

module E = Repro_experiments.Experiments
open Bechamel
open Toolkit

let rng = Repro_util.Rng.create 99

let ids = Array.init 1024 (fun _ -> Pastry.Nodeid.random rng)

let bench_nodeid_ops =
  Test.make ~name:"nodeid: prefix+digit (b=4)"
    (Staged.stage (fun () ->
         let a = ids.(Repro_util.Rng.int rng 1024)
         and b = ids.(Repro_util.Rng.int rng 1024) in
         let r = Pastry.Nodeid.shared_prefix_length ~b:4 a b in
         ignore (Pastry.Nodeid.digit ~b:4 a (min r 31))))

let bench_ring_dist =
  Test.make ~name:"nodeid: ring distance"
    (Staged.stage (fun () ->
         let a = ids.(Repro_util.Rng.int rng 1024)
         and b = ids.(Repro_util.Rng.int rng 1024) in
         ignore (Pastry.Nodeid.ring_dist a b)))

let bench_closer =
  Test.make ~name:"nodeid: closer"
    (Staged.stage (fun () ->
         let key = ids.(Repro_util.Rng.int rng 1024)
         and a = ids.(Repro_util.Rng.int rng 1024)
         and b = ids.(Repro_util.Rng.int rng 1024) in
         ignore (Pastry.Nodeid.closer ~key a b)))

let make_routing_state () =
  let me = Pastry.Peer.make ids.(0) 0 in
  let leafset = Pastry.Leafset.create ~l:32 ~me in
  let table = Pastry.Routing_table.create ~b:4 ~me:me.Pastry.Peer.id in
  for k = 1 to 512 do
    let p = Pastry.Peer.make ids.(k) k in
    ignore (Pastry.Leafset.add leafset p);
    ignore (Pastry.Routing_table.consider table p ~rtt:(Repro_util.Rng.float rng 0.2))
  done;
  (leafset, table)

let leafset_bench, table_bench = make_routing_state ()

let bench_next_hop =
  Test.make ~name:"route: next_hop over 512-node state"
    (Staged.stage (fun () ->
         let key = ids.(Repro_util.Rng.int rng 1024) in
         ignore (Pastry.Route.next_hop ~leafset:leafset_bench ~table:table_bench ~key ())))

(* the leaf-set rule of next_hop with per-hop-ack exclusions: about one
   peer in eight excluded *)
let bench_closest_excluding =
  let excluded id = Char.code (Pastry.Nodeid.to_raw id).[15] land 7 = 0 in
  Test.make ~name:"leafset: closest_excluding (l=32)"
    (Staged.stage (fun () ->
         let key = ids.(Repro_util.Rng.int rng 1024) in
         ignore (Pastry.Leafset.closest_excluding leafset_bench key ~excluded)))

let bench_leafset_add =
  Test.make ~name:"leafset: 64 adds"
    (Staged.stage (fun () ->
         let me = Pastry.Peer.make ids.(0) 0 in
         let ls = Pastry.Leafset.create ~l:32 ~me in
         for k = 1 to 64 do
           ignore (Pastry.Leafset.add ls (Pastry.Peer.make ids.(k) k))
         done))

let bench_event_queue =
  Test.make ~name:"simkit: 1k schedule+drain"
    (Staged.stage (fun () ->
         let e = Simkit.Engine.create () in
         for k = 1 to 1000 do
           ignore
             (Simkit.Engine.schedule e
                ~delay:(float_of_int (k * 7919 mod 997) /. 100.0)
                (fun () -> ()))
         done;
         Simkit.Engine.run_all e))

let bench_oracle =
  let o = Harness.Oracle.create () in
  Array.iteri (fun i id -> Harness.Oracle.add o id i) ids;
  Test.make ~name:"oracle: closest over 1k nodes"
    (Staged.stage (fun () ->
         ignore (Harness.Oracle.closest o ids.(Repro_util.Rng.int rng 1024))))

let bench_tuning_solver =
  Test.make ~name:"tuning: solve_trt bisection"
    (Staged.stage (fun () ->
         ignore (Mspastry.Tuning.solve_trt Mspastry.Config.default ~n:10_000.0 ~mu:1e-4)))

(* the two per-message fault hooks netsim consults on the hot send path *)

let bench_ge_verdict =
  let model = Repro_faults.Netfault.bursty ~avg_loss:0.03 ~burst:10.0 in
  let frng = Repro_util.Rng.create 17 in
  let i = ref 0 in
  Test.make ~name:"netfault: Gilbert-Elliott verdict"
    (Staged.stage (fun () ->
         incr i;
         ignore
           (Repro_faults.Netfault.decide model ~rng:frng ~time:(float_of_int !i)
              ~src:(!i land 63) ~dst:((!i + 1) land 63))))

let bench_node_fault =
  let module NF = Repro_faults.Nodefault in
  let victims = List.init 32 (fun k -> k * 3) in
  let model =
    NF.compose
      [
        NF.fail_slow ~factor:2.0 ~extra:0.1 ~addrs:victims ();
        NF.flapping ~period:30.0 ~duty:0.3 ~addrs:[ 1; 4; 7 ] ();
      ]
  in
  let i = ref 0 in
  Test.make ~name:"nodefault: composed decide (send+recv)"
    (Staged.stage (fun () ->
         incr i;
         let t = float_of_int !i *. 0.01 in
         ignore (NF.decide model ~time:t ~dir:NF.Send ~addr:(!i land 127));
         ignore (NF.decide model ~time:t ~dir:NF.Recv ~addr:((!i + 1) land 127))))

(* the gossip-verification admission funnel (verify_gossip) on the
   maintenance hot path: the first pass over the peer pool pays the
   challenge/response round trip per candidate, later passes hit the
   verified cache — steady-state cost in a hardened overlay *)

let bench_gossip_verify =
  let module M = Mspastry.Message in
  let module Node = Mspastry.Node in
  let engine = Simkit.Engine.create () in
  let last_challenge = ref None in
  let env =
    {
      Node.now = (fun () -> Simkit.Engine.now engine);
      send =
        (fun ~dst:_ msg ->
          match msg.M.payload with
          | M.Id_challenge { nonce } -> last_challenge := Some nonce
          | _ -> ());
      schedule = (fun ~delay fn -> Simkit.Engine.schedule engine ~delay fn);
      cancel = (fun ev -> Simkit.Engine.cancel engine ev);
      rng = Repro_util.Rng.create 5;
      deliver = (fun _ -> ());
      forward = (fun ~prev:_ _ -> Node.Continue);
      on_active = (fun () -> ());
      on_join_failed = (fun () -> ());
      on_lookup_drop = (fun _ -> ());
    }
  in
  let cfg = { Mspastry.Config.default with Mspastry.Config.verify_gossip = true } in
  let node = Node.create ~cfg ~env ~id:ids.(0) ~addr:0 in
  let () = Node.bootstrap node in
  let peers = Array.init 256 (fun k -> Pastry.Peer.make ids.(k + 1) (k + 1)) in
  let i = ref 0 in
  Test.make ~name:"mspastry: gossip-verification funnel"
    (Staged.stage (fun () ->
         incr i;
         let p = peers.(!i land 255) in
         last_challenge := None;
         Node.handle node ~src:p.Pastry.Peer.addr
           (M.make ~sender:p
              (M.Ls_probe
                 { leaf = []; failed = []; trt = 30.0; target = ids.(0) }));
         match !last_challenge with
         | Some nonce ->
             Node.handle node ~src:p.Pastry.Peer.addr
               (M.make ~sender:p (M.Id_response { nonce; id = p.Pastry.Peer.id }))
         | None -> ()))

(* the per-message queue model on netsim's hot send path: compare the
   capacity-off baseline against a saturating capacity-on run *)

let make_cap_net capacity =
  let engine = Simkit.Engine.create () in
  let net =
    Netsim.Net.create
      ~priority_of:(fun m -> if m land 1 = 1 then 1 else 0)
      ?capacity ~engine
      ~topology:(Topology.constant ~n_endpoints:64 ~delay:0.01)
      ~rng:(Repro_util.Rng.create 23) ()
  in
  for a = 0 to 63 do
    Netsim.Net.register net ~addr:a (fun ~src:_ _ -> ())
  done;
  (engine, net)

let bench_send_no_capacity =
  let engine, net = make_cap_net None in
  let i = ref 0 in
  Test.make ~name:"netsim: send, capacity off"
    (Staged.stage (fun () ->
         incr i;
         Netsim.Net.send net ~src:(!i land 63) ~dst:((!i + 7) land 63) !i;
         if !i land 1023 = 0 then Simkit.Engine.run_all engine))

let bench_send_capacity =
  let engine, net =
    make_cap_net (Some { Netsim.Net.service_rate = 100.0; queue_limit = 32 })
  in
  let i = ref 0 in
  Test.make ~name:"netsim: send, capacity on (queued)"
    (Staged.stage (fun () ->
         incr i;
         Netsim.Net.send net ~src:(!i land 63) ~dst:((!i + 7) land 63) !i;
         if !i land 1023 = 0 then Simkit.Engine.run_all engine))

let run_micro () =
  let tests =
    [
      bench_nodeid_ops;
      bench_ring_dist;
      bench_closer;
      bench_next_hop;
      bench_closest_excluding;
      bench_leafset_add;
      bench_event_queue;
      bench_oracle;
      bench_tuning_solver;
      bench_ge_verdict;
      bench_node_fault;
      bench_gossip_verify;
      bench_send_no_capacity;
      bench_send_capacity;
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  print_endline "=== Micro-benchmarks (Bechamel) ===";
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name wks ->
          let ols =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
              Instance.monotonic_clock wks
          in
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Printf.printf "%-40s %12.1f ns/op\n%!" name est;
              estimates := (name, est) :: !estimates
          | Some _ | None -> Printf.printf "%-40s (no estimate)\n%!" name)
        results)
    tests;
  List.rev !estimates

(* wall-clock + engine-throughput reference points for the JSON report *)

let time_fig3 () =
  let t0 = Unix.gettimeofday () in
  E.fig3 ~size:E.Quick ~seed:42 ();
  Unix.gettimeofday () -. t0

let time_small_sim () =
  (* a small steady-churn run on the flat topology: the engine events /
     wall-second figure tracks whole-stack simulation throughput *)
  let module Sim = Harness.Sim in
  let duration = 3600.0 in
  let trace =
    Churn.Trace.poisson (Repro_util.Rng.create 7) ~n_avg:60 ~session_mean:1800.0
      ~duration
  in
  let config =
    { Sim.default_config with topology = Sim.Flat 0.05; warmup = 600.0; seed = 42 }
  in
  let live = Sim.live_of_trace config ~trace in
  let t0 = Unix.gettimeofday () in
  Sim.Live.run_until live (duration +. config.Sim.drain);
  let wall = Unix.gettimeofday () -. t0 in
  (wall, Simkit.Engine.stats (Sim.Live.engine live))

let write_json path micro =
  let module J = Repro_obs.Json in
  let fig3_wall = time_fig3 () in
  let sim_wall, est = time_small_sim () in
  let j =
    J.Obj
      [
        ( "micro_ns_per_op",
          J.Obj (List.map (fun (name, est) -> (name, J.Float est)) micro) );
        ("fig3_quick_wall_s", J.Float fig3_wall);
        ( "sim",
          J.Obj
            [
              ("events_fired", J.Int est.Simkit.Engine.fired);
              ("events_scheduled", J.Int est.Simkit.Engine.scheduled);
              ("heap_hwm", J.Int est.Simkit.Engine.heap_hwm);
              ("wall_s", J.Float sim_wall);
              ( "events_per_wall_s",
                J.Float (float_of_int est.Simkit.Engine.fired /. sim_wall) );
              ("events_per_sim_s", J.Float est.Simkit.Engine.events_per_sim_s);
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string j);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (fig3 quick: %.2f s wall, sim: %.0f events/wall-s)\n%!" path
    fig3_wall
    (float_of_int est.Simkit.Engine.fired /. sim_wall)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json = List.mem "--json" args in
  let size =
    let rec find = function
      | "--size" :: v :: _ -> (
          match E.size_of_string v with Some s -> s | None -> E.Quick)
      | _ :: rest -> find rest
      | [] -> E.Quick
    in
    find args
  in
  let out =
    let rec find = function
      | ("-o" | "--out") :: v :: _ -> v
      | _ :: rest -> find rest
      | [] -> "BENCH.json"
    in
    find args
  in
  let names =
    (* positional targets: drop flags and the values of valued flags *)
    let rec strip = function
      | ("--size" | "-o" | "--out") :: _ :: rest -> strip rest
      | a :: rest ->
          if (String.length a > 1 && a.[0] = '-') || E.size_of_string a <> None
          then strip rest
          else a :: strip rest
      | [] -> []
    in
    strip args
  in
  let seed = 42 in
  let run_one = function
    | "micro" ->
        let micro = run_micro () in
        if json then write_json out micro
    | "fig3" -> E.fig3 ~size ~seed ()
    | "fig4" -> E.fig4 ~size ~seed ()
    | "fig5" -> E.fig5 ~size ~seed ()
    | "fig6" -> E.fig6 ~size ~seed ()
    | "fig7" -> E.fig7 ~size ~seed ()
    | "fig8" -> E.fig8 ~size ~seed ()
    | "topology" -> E.topology_table ~size ~seed ()
    | "ablation" -> E.ablation ~size ~seed ()
    | "selftuning" -> E.selftuning ~size ~seed ()
    | "suppression" -> E.suppression ~size ~seed ()
    | "structure" -> E.structure_ablation ~size ~seed ()
    | "apps" -> E.apps ~size ~seed ()
    | "consistency" -> E.consistency ~size ~seed ()
    | "all" -> E.all ~size ~seed ()
    | other -> Printf.eprintf "unknown bench target %S\n" other
  in
  match names with
  | [] ->
      let micro = run_micro () in
      if json then write_json out micro;
      E.all ~size ~seed ()
  | names -> List.iter run_one names
