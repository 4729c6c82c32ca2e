(* Self-tuning demo: watch MSPastry adapt its probing period to churn.

     dune exec examples/selftuning_demo.exe

   Every node solves the §4.1 raw-loss-rate equation from its own
   estimates of the overlay size (leaf-set density) and failure rate
   (failure history), and the network settles on the median. Low churn
   should drive the routing-table probing period Trt up (probes are a
   waste); violent churn should drive it down toward the floor. *)

module Sim = Harness.Sim
module Live = Sim.Live
module Node = Mspastry.Node
module Trace = Churn.Trace

let run_with ~label ~session_mean =
  let trace =
    Trace.poisson (Repro_util.Rng.create 21) ~n_avg:100 ~session_mean ~duration:5400.0
  in
  let config = { Sim.default_config with topology = Sim.Flat 0.02; seed = 21 } in
  let live = Live.create config ~n_endpoints:256 in
  let by_node = Hashtbl.create 256 in
  Array.iter
    (fun ev ->
      let time = ev.Trace.time in
      match ev.Trace.kind with
      | Trace.Join ->
          ignore
            (Simkit.Engine.schedule_at (Live.engine live) ~time (fun () ->
                 Hashtbl.replace by_node ev.Trace.node (Live.spawn live ())))
      | Trace.Leave ->
          ignore
            (Simkit.Engine.schedule_at (Live.engine live) ~time (fun () ->
                 match Hashtbl.find_opt by_node ev.Trace.node with
                 | Some node -> Live.crash_node live node
                 | None -> ())))
    (Trace.events trace);
  Live.run_until live 5400.0;
  let nodes = Live.active_nodes live in
  let avg f = List.fold_left (fun a n -> a +. f n) 0.0 nodes /. float_of_int (List.length nodes) in
  let true_mu = 1.0 /. session_mean in
  Printf.printf "%-28s nodes=%3d  true-mu=%.1e  est-mu=%.1e  est-N=%4.0f  Trt=%5.0fs\n%!"
    label (List.length nodes) true_mu (avg Node.estimated_mu) (avg Node.estimated_n)
    (avg Node.current_trt)

let () =
  Printf.printf "self-tuned routing-table probing period vs churn rate\n";
  Printf.printf "(target raw loss rate: %.0f%%)\n\n"
    (100.0 *. Mspastry.Config.default.Mspastry.Config.lr_target);
  run_with ~label:"frantic churn (10 min)" ~session_mean:600.0;
  run_with ~label:"heavy churn (30 min)" ~session_mean:1800.0;
  run_with ~label:"Gnutella-like (2.3 h)" ~session_mean:8280.0;
  run_with ~label:"corporate-like (12 h)" ~session_mean:43200.0;
  Printf.printf
    "\nshorter sessions -> higher failure rate -> shorter probing period;\n\
     calm networks relax toward the %.0f s cap, saving bandwidth.\n"
    Mspastry.Config.t_rt_max
