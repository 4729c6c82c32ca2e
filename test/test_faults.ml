(* The fault-injection subsystem: Netfault model statistics (uniform and
   Gilbert–Elliott average loss / burst length), blackhole, partition and
   compose semantics, netsim integration (dropped_fault counter, Faulted
   trace reason, extra delay, heal restores delivery), schedule smart
   constructors, and Live-level recovery — a transient partition episode
   and a 25% massive failure that must end with a finite time-to-repair
   and zero incorrect deliveries after convergence (oracle-checked). *)

module Rng = Repro_util.Rng
module Netfault = Repro_faults.Netfault
module Nodefault = Repro_faults.Nodefault
module Schedule = Repro_faults.Schedule
module Engine = Simkit.Engine
module Net = Netsim.Net
module Obs = Repro_obs
module Event = Obs.Event
module Sim = Harness.Sim
module Live = Sim.Live
module Collector = Overlay_metrics.Collector

(* ------------------------------------------------------- model statistics *)

let verdicts fault ~rng ~n ~src ~dst =
  List.init n (fun i -> Netfault.decide fault ~rng ~time:(float_of_int i) ~src ~dst)

let is_lost = function Netfault.Lose _ -> true | Netfault.Pass | Netfault.Delay _ -> false

let loss_fraction vs =
  let lost = List.length (List.filter is_lost vs) in
  float_of_int lost /. float_of_int (List.length vs)

(* mean length of maximal runs of consecutive Lose verdicts *)
let mean_burst_length vs =
  let runs = ref 0 and losses = ref 0 and in_run = ref false in
  List.iter
    (fun v ->
      if is_lost v then begin
        incr losses;
        if not !in_run then incr runs;
        in_run := true
      end
      else in_run := false)
    vs;
  if !runs = 0 then 0.0 else float_of_int !losses /. float_of_int !runs

let test_uniform_statistics () =
  let rng = Rng.create 11 in
  let vs = verdicts (Netfault.uniform ~rate:0.2) ~rng ~n:20_000 ~src:0 ~dst:1 in
  Alcotest.(check bool) "drops marked uniform" true
    (List.for_all (fun v -> v = Netfault.Pass || v = Netfault.Lose { uniform = true }) vs);
  let f = loss_fraction vs in
  Alcotest.(check bool) "about 20% lost" true (f > 0.17 && f < 0.23);
  (* i.i.d. losses: bursts are short (geometric, mean 1/(1-p) = 1.25) *)
  let b = mean_burst_length vs in
  Alcotest.(check bool) "uncorrelated bursts" true (b > 1.0 && b < 1.5)

let test_uniform_validation () =
  Alcotest.check_raises "rate 1.0" (Invalid_argument "Netfault.uniform: rate")
    (fun () -> ignore (Netfault.uniform ~rate:1.0));
  Alcotest.check_raises "negative" (Invalid_argument "Netfault.uniform: rate")
    (fun () -> ignore (Netfault.uniform ~rate:(-0.1)))

let test_gilbert_elliott_statistics () =
  (* open loop, one directional link: the long-run average must match the
     configured rate and the mean loss-burst length the configured burst *)
  let avg = 0.1 and burst = 5.0 in
  let rng = Rng.create 12 in
  let vs =
    verdicts (Netfault.bursty ~avg_loss:avg ~burst) ~rng ~n:200_000 ~src:3 ~dst:4
  in
  let f = loss_fraction vs in
  Alcotest.(check bool)
    (Printf.sprintf "average loss %.4f near %.2f" f avg)
    true
    (f > avg -. 0.015 && f < avg +. 0.015);
  let b = mean_burst_length vs in
  Alcotest.(check bool)
    (Printf.sprintf "mean burst %.2f near %.1f" b burst)
    true
    (b > burst -. 0.8 && b < burst +. 0.8)

let test_gilbert_elliott_degenerate () =
  (* p_good_to_bad = 0 with a stationary start: every chain stays good *)
  let good = Netfault.gilbert_elliott ~p_good_to_bad:0.0 ~p_bad_to_good:0.0 () in
  let rng = Rng.create 13 in
  Alcotest.(check (float 0.0)) "never lossy" 0.0
    (loss_fraction (verdicts good ~rng ~n:1000 ~src:0 ~dst:1));
  (* loss_good = loss_bad = 1: lossy in either state *)
  let bad =
    Netfault.gilbert_elliott ~loss_good:1.0 ~loss_bad:1.0 ~p_good_to_bad:0.5
      ~p_bad_to_good:0.5 ()
  in
  Alcotest.(check (float 0.0)) "always lossy" 1.0
    (loss_fraction (verdicts bad ~rng ~n:1000 ~src:0 ~dst:1))

let test_bursty_validation () =
  Alcotest.check_raises "avg 1.0" (Invalid_argument "Netfault.bursty: avg_loss")
    (fun () -> ignore (Netfault.bursty ~avg_loss:1.0 ~burst:5.0));
  Alcotest.check_raises "burst < 1" (Invalid_argument "Netfault.bursty: burst < 1")
    (fun () -> ignore (Netfault.bursty ~avg_loss:0.1 ~burst:0.5))

(* ------------------------------------------------- deterministic verdicts *)

let decide1 fault ~src ~dst =
  Netfault.decide fault ~rng:(Rng.create 1) ~time:0.0 ~src ~dst

let faulted = Netfault.Lose { uniform = false }

let test_blackhole_directional () =
  let f = Netfault.blackhole ~links:[ (0, 1) ] () in
  Alcotest.(check bool) "0->1 lost" true (decide1 f ~src:0 ~dst:1 = faulted);
  Alcotest.(check bool) "1->0 passes" true (decide1 f ~src:1 ~dst:0 = Netfault.Pass);
  let s = Netfault.blackhole ~symmetric:true ~links:[ (0, 1) ] () in
  Alcotest.(check bool) "symmetric reverse lost" true
    (decide1 s ~src:1 ~dst:0 = faulted)

(* The Gilbert–Elliott channel keyed by [(src, dst)] tuples, as the
   model was first written: one lazily created state per link, drawn
   from the stationary distribution, then loss and transition draws in
   the same order. *)
let reference_gilbert_elliott ~loss_bad ~p_good_to_bad ~p_bad_to_good =
  let pi_bad = p_good_to_bad /. (p_good_to_bad +. p_bad_to_good) in
  let in_bad = Hashtbl.create 16 in
  fun ~rng ~src ~dst ->
    let bad =
      match Hashtbl.find_opt in_bad (src, dst) with
      | Some r -> r
      | None ->
          let r = ref (Rng.float rng 1.0 < pi_bad) in
          Hashtbl.add in_bad (src, dst) r;
          r
    in
    let lost = !bad && Rng.float rng 1.0 < loss_bad in
    (bad :=
       if !bad then not (Rng.float rng 1.0 < p_bad_to_good)
       else Rng.float rng 1.0 < p_good_to_bad);
    if lost then Netfault.Lose { uniform = false } else Netfault.Pass

let test_gilbert_elliott_matches_reference () =
  (* (0, 0) and (2, 1) pack to 0 and 2^32 + 1, which OCaml's generic
     hash maps to the same value *)
  Alcotest.(check int) "packed keys collide under Hashtbl.hash" (Hashtbl.hash 0)
    (Hashtbl.hash ((2 lsl 31) lor 1));
  let p_good_to_bad = 0.2 and p_bad_to_good = 0.3 and loss_bad = 0.9 in
  let model = Netfault.gilbert_elliott ~loss_bad ~p_good_to_bad ~p_bad_to_good () in
  let reference = reference_gilbert_elliott ~loss_bad ~p_good_to_bad ~p_bad_to_good in
  let links = [| (0, 0); (2, 1); (1, 2); (0, 1); (1, 0); (3, 1); (1 lsl 30, 7) |] in
  let pick = Rng.create 5 and rng_m = Rng.create 9 and rng_r = Rng.create 9 in
  for i = 1 to 5000 do
    let src, dst =
      if i mod 3 = 0 then (Rng.int pick 64, Rng.int pick 64) else Rng.pick pick links
    in
    let expected = reference ~rng:rng_r ~src ~dst in
    let actual = Netfault.decide model ~rng:rng_m ~time:(float_of_int i) ~src ~dst in
    if expected <> actual then Alcotest.failf "step %d, link (%d, %d): verdicts differ" i src dst
  done

let test_link_endpoint_range () =
  let ge = Netfault.bursty ~avg_loss:0.1 ~burst:2.0 in
  let bh = Netfault.blackhole ~links:[ (0, 1) ] () in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (src, dst) ->
      let name = Printf.sprintf "(%d, %d)" src dst in
      rejects ("gilbert-elliott " ^ name) (fun () -> decide1 ge ~src ~dst);
      rejects ("blackhole " ^ name) (fun () -> decide1 bh ~src ~dst);
      rejects ("blackhole links " ^ name) (fun () -> Netfault.blackhole ~links:[ (src, dst) ] ()))
    [ (-1, 0); (0, -1); (1 lsl 31, 0); (0, 1 lsl 31) ];
  Alcotest.(check bool) "largest endpoint accepted" true
    (decide1 bh ~src:((1 lsl 31) - 1) ~dst:((1 lsl 31) - 1) = Netfault.Pass)

let test_partition_model () =
  let f = Netfault.partition ~group_of:(fun e -> e mod 2) in
  Alcotest.(check bool) "cross-group lost" true (decide1 f ~src:0 ~dst:1 = faulted);
  Alcotest.(check bool) "intra-group passes" true
    (decide1 f ~src:0 ~dst:2 = Netfault.Pass)

let test_compose () =
  let f =
    Netfault.compose
      [ Netfault.extra_delay 0.1; Netfault.extra_delay 0.2; Netfault.none ]
  in
  (match decide1 f ~src:0 ~dst:1 with
  | Netfault.Delay d -> Alcotest.(check (float 1e-9)) "delays accumulate" 0.3 d
  | _ -> Alcotest.fail "expected Delay");
  let g =
    Netfault.compose [ Netfault.extra_delay 0.1; Netfault.blackhole ~links:[ (0, 1) ] () ]
  in
  Alcotest.(check bool) "Lose short-circuits" true
    (decide1 g ~src:0 ~dst:1 = faulted);
  Alcotest.(check bool) "empty compose passes" true
    (decide1 (Netfault.compose []) ~src:0 ~dst:1 = Netfault.Pass)

(* ------------------------------------------------------ netsim integration *)

let make_net ?(n = 4) ?trace () =
  let engine = Engine.create () in
  let topology = Topology.constant ~n_endpoints:n ~delay:0.01 in
  let net = Net.create ?trace ~engine ~topology ~rng:(Rng.create 7) () in
  (engine, net)

let set_link net link = Net.set_faults net ~link ~node:Nodefault.none

let test_net_fault_counter_and_trace () =
  let trace = Obs.Trace.create (Obs.Sink.memory ~capacity:100) in
  let engine, net = make_net ~trace () in
  let got = ref 0 in
  Net.register net ~addr:0 (fun ~src:_ _ -> incr got);
  Net.register net ~addr:1 (fun ~src:_ _ -> incr got);
  set_link net (Netfault.blackhole ~links:[ (0, 1) ] ());
  Net.send net ~src:0 ~dst:1 "dropped";
  Net.send net ~src:1 ~dst:0 "delivered";
  Engine.run_all engine;
  let s = Net.stats net in
  Alcotest.(check int) "dropped_fault" 1 s.Net.dropped_fault;
  Alcotest.(check int) "dropped_loss untouched" 0 s.Net.dropped_loss;
  Alcotest.(check int) "reverse delivered" 1 !got;
  let faulted =
    List.filter
      (fun (e : Event.t) ->
        match e.Event.body with
        | Event.Drop { reason = Event.Faulted; _ } -> true
        | _ -> false)
      (Obs.Trace.events trace)
  in
  Alcotest.(check int) "one Faulted drop event" 1 (List.length faulted);
  (* heal: removing the model restores delivery *)
  set_link net Netfault.none;
  Net.send net ~src:0 ~dst:1 "after heal";
  Engine.run_all engine;
  Alcotest.(check int) "delivered after heal" 2 !got;
  Alcotest.(check int) "no drop after heal" 1 (Net.n_dropped net)

let test_net_partition_heal_restores_delivery () =
  let engine, net = make_net () in
  let got = ref 0 in
  for a = 0 to 3 do
    Net.register net ~addr:a (fun ~src:_ _ -> incr got)
  done;
  set_link net (Netfault.partition ~group_of:(fun e -> e mod 2));
  Net.send net ~src:0 ~dst:1 "cross";
  Net.send net ~src:1 ~dst:3 "intra";
  Engine.run_all engine;
  Alcotest.(check int) "only intra-group delivered" 1 !got;
  set_link net Netfault.none;
  Net.send net ~src:0 ~dst:1 "healed";
  Engine.run_all engine;
  Alcotest.(check int) "cross-group delivered after heal" 2 !got;
  Alcotest.(check int) "one fault drop" 1 (Net.stats net).Net.dropped_fault

let test_net_extra_delay () =
  let engine, net = make_net () in
  let at = ref nan in
  Net.register net ~addr:1 (fun ~src:_ _ -> at := Engine.now engine);
  set_link net (Netfault.extra_delay 0.25);
  Net.send net ~src:0 ~dst:1 "slow";
  Engine.run_all engine;
  Alcotest.(check (float 1e-9)) "propagation + extra" 0.26 !at

let test_net_uniform_model_statistics () =
  (* the uniform model is the paper's loss process wherever it is
     installed: its drops are loss, never fault *)
  let engine, net = make_net () in
  let got = ref 0 in
  Net.register net ~addr:1 (fun ~src:_ _ -> incr got);
  set_link net (Netfault.uniform ~rate:0.5);
  for _ = 1 to 2000 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  Engine.run_all engine;
  Alcotest.(check bool) "about half lost" true (!got > 850 && !got < 1150);
  Alcotest.(check int) "all drops counted as loss" (2000 - !got)
    (Net.stats net).Net.dropped_loss;
  Alcotest.(check int) "none counted as fault" 0 (Net.stats net).Net.dropped_fault

(* --------------------------------------------------------------- schedule *)

let test_schedule_constructors () =
  let evs =
    [
      Schedule.crash_fraction ~time:200.0 0.25;
      Schedule.partition ~time:100.0 ~duration:300.0 2;
      Schedule.heal 150.0;
    ]
  in
  let ts = List.map (fun (e : Schedule.event) -> e.Schedule.time) (Schedule.sorted evs) in
  Alcotest.(check (list (float 1e-9))) "sorted by time" [ 100.0; 150.0; 200.0 ] ts;
  Alcotest.(check string) "crash label" "crash 25%"
    (Schedule.crash_fraction ~time:0.0 0.25).Schedule.label;
  Alcotest.(check string) "partition label" "partition 2 ways for 300s"
    (Schedule.partition ~time:0.0 ~duration:300.0 2).Schedule.label;
  Alcotest.(check string) "explicit label wins" "ep1"
    (Schedule.crash_fraction ~label:"ep1" ~time:0.0 0.5).Schedule.label

let test_schedule_validation () =
  Alcotest.check_raises "groups < 2" (Invalid_argument "Schedule.partition: groups < 2")
    (fun () -> ignore (Schedule.partition ~time:0.0 ~duration:10.0 1));
  Alcotest.check_raises "bad fraction" (Invalid_argument "Schedule.crash_fraction")
    (fun () -> ignore (Schedule.crash_fraction ~time:0.0 1.5));
  Alcotest.check_raises "bad duration" (Invalid_argument "Schedule.overlay: duration")
    (fun () -> ignore (Schedule.overlay ~time:0.0 ~duration:0.0 Netfault.none))

(* ---------------------------------------------------------- live recovery *)

let flat_config ?(lookup_rate = 0.3) ?(seed = 9) () =
  {
    Sim.default_config with
    topology = Sim.Flat 0.02;
    lookup_rate;
    seed;
    warmup = 0.0;
    window = 60.0;
  }

let spawn_overlay live ~n =
  for i = 0 to n - 1 do
    Live.spawn_at live ~time:(float_of_int i *. 5.0) ()
  done

let test_live_partition_episode () =
  let live = Live.create (flat_config ()) ~n_endpoints:16 in
  spawn_overlay live ~n:10;
  Live.run_until live 300.0;
  Alcotest.(check int) "all nodes up" 10 (Live.node_count live);
  let fault_drops () = (Net.stats (Live.net live)).Net.dropped_fault in
  Alcotest.(check int) "no fault drops before the split" 0 (fault_drops ());
  Live.inject live (Sim.Schedule.partition ~label:"split" ~time:300.0 ~duration:90.0 2);
  Live.run_until live 360.0;
  (* endpoints are split randomly into two groups, so overlay maintenance
     traffic crosses the cut and some of it must be dropped *)
  Alcotest.(check bool) "cross-group traffic dropped" true (fault_drops () > 0);
  Live.run_until live 391.0;
  let at_heal = fault_drops () in
  Live.run_until live 600.0;
  Alcotest.(check int) "healed after duration" at_heal (fault_drops ());
  Alcotest.(check bool) "nobody crashed" true (Live.node_count live = 10);
  match Collector.episodes (Live.collector live) with
  | [ ep ] -> Alcotest.(check string) "episode recorded" "split" ep.Collector.ep_label
  | eps -> Alcotest.failf "expected one episode, got %d" (List.length eps)

let test_live_massive_failure_recovers () =
  let live = Live.create (flat_config ()) ~n_endpoints:32 in
  spawn_overlay live ~n:30;
  Live.run_until live 600.0;
  Alcotest.(check int) "all nodes up" 30 (Live.node_count live);
  Live.inject live (Sim.Schedule.crash_fraction ~label:"mass-crash" ~time:600.0 0.25);
  Alcotest.(check int) "a quarter crashed" 22 (Live.node_count live);
  Live.run_until live 1560.0;
  (match Collector.episodes (Live.collector live) with
  | [ ep ] -> (
      match ep.Collector.time_to_repair with
      | Some ttr ->
          Alcotest.(check bool)
            (Printf.sprintf "finite time-to-repair (%.0fs)" ttr)
            true
            (ttr > 0.0 && ttr <= 600.0)
      | None -> Alcotest.fail "no repair observed before the run ended")
  | eps -> Alcotest.failf "expected one episode, got %d" (List.length eps));
  (* oracle-checked consistency after convergence: every delivery judged
     against the true ring-closest active node *)
  let s =
    Collector.summary ~since:900.0 ~until:1560.0 (Live.collector live)
  in
  Alcotest.(check int) "zero incorrect deliveries after convergence" 0
    s.Collector.incorrect_deliveries;
  Alcotest.(check bool) "lookups flowed post-fault" true (s.Collector.lookups_sent > 100)

let suite =
  [
    ( "faults",
      [
        Alcotest.test_case "uniform statistics" `Quick test_uniform_statistics;
        Alcotest.test_case "uniform validation" `Quick test_uniform_validation;
        Alcotest.test_case "gilbert-elliott statistics" `Quick
          test_gilbert_elliott_statistics;
        Alcotest.test_case "gilbert-elliott degenerate chains" `Quick
          test_gilbert_elliott_degenerate;
        Alcotest.test_case "bursty validation" `Quick test_bursty_validation;
        Alcotest.test_case "blackhole directional" `Quick test_blackhole_directional;
        Alcotest.test_case "partition model" `Quick test_partition_model;
        Alcotest.test_case "compose" `Quick test_compose;
        Alcotest.test_case "net fault counter and trace" `Quick
          test_net_fault_counter_and_trace;
        Alcotest.test_case "net partition heal restores delivery" `Quick
          test_net_partition_heal_restores_delivery;
        Alcotest.test_case "net extra delay" `Quick test_net_extra_delay;
        Alcotest.test_case "net uniform model statistics" `Quick
          test_net_uniform_model_statistics;
        Alcotest.test_case "schedule constructors" `Quick test_schedule_constructors;
        Alcotest.test_case "schedule validation" `Quick test_schedule_validation;
        Alcotest.test_case "live partition episode" `Slow test_live_partition_episode;
        Alcotest.test_case "live massive failure recovers" `Slow
          test_live_massive_failure_recovers;
        Alcotest.test_case "gilbert-elliott matches tuple-keyed reference" `Quick
          test_gilbert_elliott_matches_reference;
        Alcotest.test_case "link endpoint range" `Quick test_link_endpoint_range;
      ] );
  ]
