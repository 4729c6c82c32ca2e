(* Churn survival: the paper's headline scenario.

     dune exec examples/churn_survival.exe

   Replays two hours of Gnutella-like churn (continuous joins and
   crashes, lognormal session times, ~150 concurrent nodes) against the
   full MSPastry stack and reports the dependability metrics of §5.2.
   With the paper's techniques enabled the overlay keeps routing: zero
   inconsistent deliveries and a vanishing loss rate. Control traffic
   reads 1.145 messages per second per node, above the paper's level;
   ROADMAP item 1 tracks the gap. *)

module Sim = Harness.Sim
module Trace = Churn.Trace
module Collector = Overlay_metrics.Collector

let () =
  let rng = Repro_util.Rng.create 7 in
  let trace = Trace.gnutella ~scale:0.08 ~duration:(2.0 *. 3600.0) rng in
  Printf.printf "churn trace: %d sessions, up to %d concurrent nodes\n"
    (Trace.n_nodes trace) (Trace.max_concurrent trace);
  Printf.printf "             mean session %.0f min (lognormal, Gnutella-like)\n"
    (Trace.mean_session trace /. 60.0);

  let config =
    { Sim.default_config with topology = Sim.Gatech; warmup = 1800.0; seed = 7 }
  in
  Printf.printf "running 2 simulated hours of churn...\n%!";
  let live = Sim.run config ~trace in
  let s = Sim.Live.summary live in

  Printf.printf "\ndependability (measured after 30 min warmup):\n";
  Printf.printf "  lookups sent          %d\n" s.Collector.lookups_sent;
  Printf.printf "  lookup loss rate      %.2e\n" s.Collector.loss_rate;
  Printf.printf "  incorrect deliveries  %d (rate %.2e)\n" s.Collector.incorrect_deliveries
    s.Collector.incorrect_rate;
  Printf.printf "\nperformance:\n";
  Printf.printf "  relative delay penalty  %.2f\n" s.Collector.rdp_mean;
  Printf.printf "  mean overlay hops       %.2f\n" s.Collector.hops_mean;
  Printf.printf "  control traffic         %.3f msg/s/node\n"
    s.Collector.control_per_node_per_s;
  List.iter
    (fun (c, v) ->
      Printf.printf "    %-18s %.4f\n" (Mspastry.Message.class_name c) v)
    s.Collector.control_by_class;
  Printf.printf "\njoins: %d completed (mean latency %.1f s), %d failed\n"
    s.Collector.joins s.Collector.join_latency_mean (Sim.Live.join_failures live)
