module Sim = Harness.Sim
module Live = Sim.Live
module Collector = Overlay_metrics.Collector
module M = Mspastry.Message
module Trace = Churn.Trace
module Rng = Repro_util.Rng
module Netfault = Repro_faults.Netfault
module Advfault = Repro_faults.Advfault
module Schedule = Repro_faults.Schedule
module Profile = Repro_obs.Profile
module Hist = Repro_obs.Hist

type size = Quick | Medium | Full

let hours h = h *. 3600.0

(* per-size dimensions for the synthetic traces *)
let poisson_n = function Quick -> 120 | Medium -> 400 | Full -> 10_000
let poisson_duration = function Quick -> hours 2.0 | Medium -> hours 5.0 | Full -> hours 12.0

let warmup_for = function Quick -> 1800.0 | Medium -> 3600.0 | Full -> hours 3.0

let ph_workload = Profile.phase "harness.workload"

(* The workhorse trace at the given scale (shared by E2, E5–E9). *)
let gnutella_trace ?duration size ~seed =
  if !Profile.on then Profile.enter ph_workload;
  let scale, length =
    match size with
    | Quick -> (0.06, hours 2.5)
    | Medium -> (0.15, hours 6.0)
    | Full -> (1.0, hours 60.0)
  in
  let trace =
    Trace.gnutella ~scale
      ~duration:(Option.value duration ~default:length)
      (Rng.create (seed + 1000))
  in
  if !Profile.on then Profile.leave ph_workload;
  trace

(* Where runs write their manifest (see Manifest, DESIGN.md §9); [None]
   disables the write. Experiments that run several configurations reuse
   the path, so the file holds the last run's manifest. *)
let manifest_out : string option ref = ref None
let set_manifest_out p = manifest_out := p

let base_config size ~seed =
  { Sim.default_config with seed; warmup = warmup_for size; manifest_out = !manifest_out }

let header title =
  Printf.printf "\n=== %s ===\n%!" title

let series_line name pts =
  Printf.printf "%s:" name;
  Array.iter (fun (t, v) -> Printf.printf " %.3g:%.4g" t v) pts;
  print_newline ()

(* ---- the table printer ------------------------------------------------ *)

(* A column is a header, a width, an alignment and a cell formatter. A
   cell wider than its column prints whole. *)
type 'r column = { head : string; width : int; left : bool; cell : 'r -> string }

let col ?(left = false) head width fmt get =
  { head; width; left; cell = (fun r -> Printf.sprintf fmt (get r)) }

let print_line cols text =
  List.map
    (fun c -> Printf.sprintf (if c.left then "%-*s" else "%*s") c.width (text c))
    cols
  |> String.concat " " |> print_endline;
  flush stdout

(* Print the header, then run each row and print it as soon as it ends. *)
let table cols rows run =
  print_line cols (fun c -> c.head);
  List.iter (fun row -> let r = run row in print_line cols (fun c -> c.cell r)) rows

(* ---- the driver: rows are a key plus a config delta -------------------- *)

let deltas delta keys = List.map (fun k -> (k, delta k)) keys

(* config deltas: on the protocol parameters, and a fault schedule *)
let pastry f c = { c with Sim.pastry = f c.Sim.pastry }
let inject events c = { c with Sim.fault_schedule = events }

(* Replay [trace] once per row under the row's delta of [base]; the
   columns see [(key, closed session)]. *)
let sweep cols ~base ~trace rows =
  table cols rows (fun (key, delta) -> (key, Sim.run (delta base) ~trace))

let gnutella_sweep size ~seed cols rows =
  sweep cols ~base:(base_config size ~seed) ~trace:(gnutella_trace size ~seed) rows

(* columns over [(key, live)]; [stat] reads the summary over
   [\[since, until\]] (default: warmup to the trace's end) *)
let key head width fmt get = col ~left:true head width fmt (fun (k, _) -> get k)

let stat ?since ?until head width fmt get =
  col head width fmt (fun (_, live) -> get (Live.summary ?since ?until live))

let rdp width = stat "RDP" width "%.2f" (fun s -> s.Collector.rdp_mean)

let control ?since ?until width =
  stat ?since ?until "control" width "%.3f" (fun s -> s.Collector.control_per_node_per_s)

let loss head width = stat head width "%.2e" (fun s -> s.Collector.loss_rate)
let incorrect width = stat "incorrect" width "%.2e" (fun s -> s.Collector.incorrect_rate)

let success ?since ?until head width =
  stat ?since ?until head width "%.4f" (fun s -> s.Collector.success_rate)

(* control messages of one class per second per node *)
let class_rate head width cls =
  stat head width "%.4f" (fun s ->
      Option.value (List.assoc_opt cls s.Collector.control_by_class) ~default:0.0)

let congestion_drops head width =
  col head width "%d" (fun (_, live) ->
      (Netsim.Net.stats (Live.net live)).Netsim.Net.dropped_congestion)

let ring width =
  col "ring" width "%.3f" (fun (_, live) ->
      (Live.ring_audit live).Harness.Oracle.agreement)

(* a percentile of the queueing delays of the windows in [\[since, until\]] *)
let queue_pct head width ~since ~until p =
  col head width "%.4f" (fun (_, live) ->
      let h = Collector.queue_delay_hist ~since ~until (Live.collector live) in
      if Hist.count h = 0 then 0.0 else Hist.percentile h p)

(* ------------------------------------------------------------------ *)

let fig3 size ~seed =
  header "Fig 3: node failure rates (per node per second) for the three traces";
  let traces =
    match size with
    | Full ->
        [
          ("gnutella", Trace.gnutella (Rng.create seed), 600.0);
          ("overnet", Trace.overnet (Rng.create (seed + 1)), 600.0);
          ("microsoft", Trace.microsoft (Rng.create (seed + 2)), 3600.0);
        ]
    | Medium | Quick ->
        let sc = if size = Medium then 0.2 else 0.08 in
        [
          ("gnutella", Trace.gnutella ~scale:sc (Rng.create seed), 600.0);
          ( "overnet",
            Trace.overnet ~scale:1.0 ~duration:(hours 48.0) (Rng.create (seed + 1)),
            600.0 );
          ( "microsoft",
            Trace.microsoft ~scale:0.02 ~duration:(hours 96.0) (Rng.create (seed + 2)),
            3600.0 );
        ]
  in
  List.iter
    (fun (name, trace, window) ->
      let series = Trace.failure_rate_series trace ~window in
      (* thin long series for printing *)
      let step = max 1 (Array.length series / 48) in
      let thinned =
        Array.of_list
          (List.filteri (fun i _ -> i mod step = 0) (Array.to_list series))
      in
      Printf.printf "%-10s sessions=%d max-pop=%d mean-session=%.0fs\n" name
        (Trace.n_nodes trace) (Trace.max_concurrent trace) (Trace.mean_session trace);
      series_line "  failure-rate" thinned)
    traces

(* ------------------------------------------------------------------ *)

let topology_table size ~seed =
  header "Topology table (§5.3): dependability and performance per topology";
  gnutella_sweep size ~seed
    [
      key "topology" 10 "%s" Sim.topology_name;
      loss "loss-rate" 12;
      incorrect 12;
      control 8;
      rdp 8;
    ]
    (deltas
       (fun kind c -> { c with Sim.topology = kind })
       [ Sim.Corpnet; Sim.Gatech; Sim.Mercator ])

(* ------------------------------------------------------------------ *)

let fig4 size ~seed =
  header "Fig 4: RDP and control traffic over time, per trace";
  (* the three traces, at the paper's dimensions when [Full] *)
  let traces (g, o, m) duration =
    [
      ("gnutella", Trace.gnutella ?scale:g ?duration (Rng.create (seed + 1000)));
      ("overnet", Trace.overnet ?scale:o ?duration (Rng.create (seed + 1001)));
      ("microsoft", Trace.microsoft ?scale:m ?duration (Rng.create (seed + 1002)));
    ]
  in
  List.iter
    (fun (name, trace) ->
      let live = Sim.run (base_config size ~seed) ~trace in
      let s = Live.summary live and c = Live.collector live in
      Printf.printf "%-10s pop=%.0f rdp=%.2f control=%.3f msg/s/node loss=%.2e incorrect=%.2e\n"
        name s.Collector.mean_population s.Collector.rdp_mean
        s.Collector.control_per_node_per_s s.Collector.loss_rate s.Collector.incorrect_rate;
      let norm arr =
        let d = Trace.duration trace in
        Array.map (fun (t, v) -> (t /. d, v)) arr
      in
      series_line "  rdp(t)" (norm (Collector.rdp_series c));
      series_line "  control(t)" (norm (Collector.control_series c));
      if name = "gnutella" then
        List.iter
          (fun cls ->
            if M.is_control cls then
              series_line
                (Printf.sprintf "  %s(t)" (M.class_name cls))
                (norm (Collector.control_series_by_class c cls)))
          M.all_classes;
      flush stdout)
    (match size with
    | Full -> traces (None, None, None) None
    | Medium -> traces (Some 0.15, Some 0.6, Some 0.015) (Some (hours 8.0))
    | Quick -> traces (Some 0.06, Some 0.3, Some 0.008) (Some (hours 2.5)))

(* ------------------------------------------------------------------ *)

let fig5 size ~seed =
  header "Fig 5: RDP, control traffic and join latency vs session time (Poisson)";
  let sessions_min =
    match size with Quick -> [ 5.; 15.; 30.; 120. ] | Medium | Full -> [ 5.; 15.; 30.; 60.; 120.; 600. ]
  in
  let cdf_traces = ref [] in
  table
    [
      key "session(min)" 12 "%.0f" Fun.id;
      rdp 8;
      control 10;
      loss "loss" 10;
      col "join-fail" 12 "%d" (fun (_, live) -> Live.join_failures live);
      stat "joins" 8 "%d" (fun s -> s.Collector.joins);
    ]
    sessions_min
    (fun mins ->
      let session_mean = mins *. 60.0 in
      let duration =
        Float.max (poisson_duration size) (8.0 *. session_mean)
      in
      let duration = Float.min duration (hours 10.0) in
      let trace =
        Trace.poisson (Rng.create (seed + 2000 + int_of_float mins))
          ~n_avg:(poisson_n size) ~session_mean ~duration
      in
      let config = base_config size ~seed in
      let config = { config with Sim.warmup = Float.min config.Sim.warmup (duration /. 4.0) } in
      let live = Sim.run config ~trace in
      if mins = 5.0 || mins = 30.0 then
        cdf_traces :=
          (mins, Collector.join_latencies (Live.collector live)) :: !cdf_traces;
      (mins, live));
  List.iter
    (fun (mins, lats) ->
      let cdf = Repro_util.Stats.cdf lats in
      let step = max 1 (Array.length cdf / 24) in
      let thinned =
        Array.of_list (List.filteri (fun i _ -> i mod step = 0) (Array.to_list cdf))
      in
      series_line (Printf.sprintf "join-latency-cdf-%.0fmin" mins) thinned)
    (List.rev !cdf_traces)

(* ------------------------------------------------------------------ *)

let fig6 size ~seed =
  header "Fig 6: impact of network message loss (0-5%)";
  gnutella_sweep size ~seed
    [
      key "loss%" 8 "%.1f" Fun.id;
      rdp 8;
      control 10;
      loss "lookup-loss" 12;
      incorrect 14;
    ]
    (deltas
       (fun pct c -> { c with Sim.loss_rate = pct /. 100.0 })
       (match size with
       | Quick -> [ 0.; 1.; 3.; 5. ]
       | Medium | Full -> [ 0.; 1.; 2.; 3.; 4.; 5. ]))

(* ------------------------------------------------------------------ *)

let fig7 size ~seed =
  header "Fig 7: effect of leaf-set size l and digit size b";
  let vary name set values =
    gnutella_sweep size ~seed
      [ key name 6 "%d" Fun.id; control 10; rdp 8 ]
      (deltas (fun v -> pastry (set v)) values)
  in
  vary "l"
    (fun l p -> { p with Mspastry.Config.l })
    (match size with Quick -> [ 8; 16; 32 ] | Medium | Full -> [ 8; 16; 24; 32; 48; 64 ]);
  vary "b"
    (fun b p -> { p with Mspastry.Config.b })
    (match size with Quick -> [ 1; 2; 4 ] | Medium | Full -> [ 1; 2; 3; 4; 5 ])

(* ------------------------------------------------------------------ *)

let ablation size ~seed =
  header "Ablation (§5.3): active probing and per-hop acks";
  let variants =
    [
      ("neither", false, false);
      ("acks only", true, false);
      ("probing only", false, true);
      ("acks + probing", true, true);
    ]
  in
  let rates = match size with Quick -> [ 0.01 ] | Medium | Full -> [ 0.01; 0.001 ] in
  gnutella_sweep size ~seed
    [
      key "configuration" 24 "%s" fst;
      key "lookups/s" 10 "%.3f" snd;
      loss "loss-rate" 12;
      rdp 8;
      control 10;
    ]
    (List.concat_map
       (fun rate ->
         List.map
           (fun (name, acks, probing) ->
             ( (name, rate),
               fun c ->
                 pastry
                   (fun p ->
                     {
                       p with
                       Mspastry.Config.per_hop_acks = acks;
                       active_probing = probing;
                     })
                   { c with Sim.lookup_rate = rate } ))
           variants)
       rates)

(* ------------------------------------------------------------------ *)

let selftuning size ~seed =
  header "Self-tuning (§5.3): raw loss rate vs target (per-hop acks off)";
  gnutella_sweep size ~seed
    [ key "target-Lr" 10 "%.2f" Fun.id; loss "achieved" 12; rdp 12; control 10 ]
    (deltas
       (fun target ->
         pastry (fun p ->
             { p with Mspastry.Config.per_hop_acks = false; lr_target = target }))
       [ 0.05; 0.01 ])

(* ------------------------------------------------------------------ *)

let suppression size ~seed =
  header "Suppression (§5.3): application traffic replaces failure detection";
  gnutella_sweep size ~seed
    [
      key "lookups/s" 12 "%.3f" Fun.id;
      class_rate "rt-probes" 12 M.C_rt_probe;
      class_rate "leafset" 12 M.C_leafset;
      control 12;
      rdp 8;
    ]
    (deltas
       (fun rate c -> { c with Sim.lookup_rate = rate })
       (match size with
       | Quick -> [ 0.0; 0.1; 1.0 ]
       | Medium | Full -> [ 0.0; 0.01; 0.1; 1.0 ]))

(* ------------------------------------------------------------------ *)

let structure_ablation size ~seed =
  header "Structure ablation (§4.1): leaf-set overhead vs l, heartbeat optimisation";
  let ls =
    match size with Quick -> [ 16; 32 ] | Medium | Full -> [ 8; 16; 32; 64 ]
  in
  gnutella_sweep size ~seed
    [
      key "l" 6 "%d" fst;
      key "structure" 12 "%s" (fun (_, exploit) ->
          if exploit then "heartbeat" else "probe-all");
      class_rate "leafset-msgs" 14 M.C_leafset;
      control 14;
    ]
    (deltas
       (fun (l, exploit) ->
         pastry (fun p -> { p with Mspastry.Config.l; exploit_structure = exploit }))
       (List.concat_map (fun l -> [ (l, true); (l, false) ]) ls))

(* ------------------------------------------------------------------ *)

let fig8 size ~seed =
  header "Fig 8: Squirrel deployment traffic (simulator vs independent seed)";
  let n_nodes, duration, window =
    match size with
    | Quick -> (26, 86_400.0, 3600.0)
    | Medium -> (52, 2.0 *. 86_400.0, 3600.0)
    | Full -> (52, 6.0 *. 86_400.0, 3600.0)
  in
  List.iter
    (fun (label, s) ->
      let r = Squirrel.Deployment.run ~n_nodes ~duration ~window ~seed:s () in
      Printf.printf
        "%-12s nodes=%d requests=%d hit-rate=%.2f failed=%d mean-latency=%.0fms\n" label
        r.Squirrel.Deployment.n_nodes r.Squirrel.Deployment.cache_stats.Squirrel.Cache.requests
        r.Squirrel.Deployment.hit_rate r.Squirrel.Deployment.cache_stats.Squirrel.Cache.failed
        (r.Squirrel.Deployment.cache_stats.Squirrel.Cache.mean_latency *. 1000.0);
      series_line "  total-traffic" r.Squirrel.Deployment.total_traffic)
    [ ("run-A", seed); ("run-B", seed + 7919) ]

let consistency size ~seed =
  header "Consistency vs latency (§3.2): delivery policy when the root misses an ack";
  let pcts = match size with Quick -> [ 0.; 5. ] | Medium | Full -> [ 0.; 1.; 5. ] in
  gnutella_sweep size ~seed
    [
      key "policy" 24 "%s" fst;
      key "loss%" 8 "%.1f" snd;
      incorrect 12;
      loss "lookup-loss" 12;
      rdp 8;
    ]
    (List.concat_map
       (fun (label, retries) ->
         List.map
           (fun pct ->
             ( (label, pct),
               fun c ->
                 pastry
                   (fun p -> { p with Mspastry.Config.root_retries = retries })
                   { c with Sim.loss_rate = pct /. 100.0 } ))
           pcts)
       [
         ("deliver-at-alternative", 0);
         ("retry-root x4 (default)", 4);
         ("retry-until-evicted", 20);
       ])

let apps size ~seed =
  header "Applications under churn (extension): Scribe multicast + PAST storage";
  let trace = gnutella_trace size ~seed in
  let config = base_config size ~seed in
  let live = Sim.live_of_trace config ~trace in
  let warmup = warmup_for size in
  let duration = Trace.duration trace in
  let scribe = Scribe.create ~refresh_period:30.0 ~live () in
  let store = Past_store.Past.create ~replicas:3 ~refresh_period:60.0 ~live () in
  let group = Scribe.group_of_name "churn-group" in
  let rng = Rng.create (seed + 31) in
  let published = ref [] in
  let n_objects = 100 in
  ignore
    (Simkit.Engine.schedule_at (Live.engine live) ~time:warmup (fun () ->
         let nodes = Array.of_list (Live.active_nodes live) in
         Array.iteri
           (fun i n -> if i mod 2 = 0 then Scribe.subscribe scribe ~member:n group)
           nodes;
         for i = 0 to n_objects - 1 do
           Past_store.Past.put store
             ~client:nodes.(Rng.int rng (Array.length nodes))
             ~key:(Printf.sprintf "obj-%d" i)
             ~value:"payload"
         done));
  (* one multicast and two gets every 30 s for the rest of the trace *)
  let t = ref (warmup +. 60.0) in
  while !t < duration -. 60.0 do
    let fire = !t in
    ignore
      (Simkit.Engine.schedule_at (Live.engine live) ~time:fire (fun () ->
           let nodes = Array.of_list (Live.active_nodes live) in
           if Array.length nodes > 0 then begin
             let from = nodes.(Rng.int rng (Array.length nodes)) in
             let id = Scribe.multicast scribe ~from group in
             published := (id, Scribe.members scribe group) :: !published;
             for _ = 1 to 2 do
               Past_store.Past.get store
                 ~client:nodes.(Rng.int rng (Array.length nodes))
                 ~key:(Printf.sprintf "obj-%d" (Rng.int rng n_objects))
             done
           end));
    t := !t +. 30.0
  done;
  Live.run_until live (duration +. config.Sim.drain);
  Live.close live;
  let total = ref 0 and ratio_acc = ref 0.0 in
  List.iter
    (fun (id, members_then) ->
      if members_then > 0 then begin
        incr total;
        ratio_acc :=
          !ratio_acc
          +. (float_of_int (Scribe.delivered scribe group id) /. float_of_int members_then)
      end)
    !published;
  let st = Past_store.Past.stats store in
  let sc = Scribe.stats scribe in
  Printf.printf "scribe: %d multicasts, mean delivery ratio %.3f, %d members now\n"
    !total
    (if !total = 0 then 0.0 else !ratio_acc /. float_of_int !total)
    (Scribe.members scribe group);
  Printf.printf "        (%d subscribes, %d tree messages)\n" sc.Scribe.subscribes_sent
    sc.Scribe.tree_messages;
  Printf.printf
    "past:   %d/%d gets hit (%d misses, %d timeouts), %d replicas resident, %d repairs\n%!"
    st.Past_store.Past.get_hits st.Past_store.Past.gets st.Past_store.Past.get_misses
    st.Past_store.Past.get_timeouts st.Past_store.Past.stored_objects
    st.Past_store.Past.repair_pulls

(* ------------------------------------------------------------------ *)

(* E-faults A: simultaneous crash of a large fraction of the overlay
   under OverNet-like churn, with oracle-checked recovery metrics. *)
let massive_failure size ~seed =
  header "E-faults A: massive correlated failures under OverNet-like churn";
  let scale, duration =
    match size with
    | Quick -> (0.3, hours 2.5)
    | Medium -> (0.6, hours 5.0)
    | Full -> (1.0, hours 12.0)
  in
  let warmup = warmup_for size in
  let t_fault = warmup +. ((duration -. warmup) /. 2.0) in
  Printf.printf
    "crash at t=%.0fs; recovery judged on %gs windows of lookups by send time\n"
    t_fault Sim.default_config.Sim.window;
  let label fraction = Printf.sprintf "crash-%.0f%%" (100.0 *. fraction) in
  let episode (fraction, live) =
    List.find_opt
      (fun e -> e.Collector.ep_label = label fraction)
      (Collector.episodes (Live.collector live))
  in
  let peak head get =
    col head 12 "%.3g" (fun r -> match episode r with Some e -> get e | None -> nan)
  in
  (* convergence check: the tail of the run, well after the fault, must
     be back to zero incorrect deliveries (oracle-checked) *)
  let post = t_fault +. 1800.0 in
  let pop ?since ?until head =
    stat ?since ?until head 8 "%.0f" (fun s -> s.Collector.mean_population)
  in
  sweep
    [
      key "crash%" 8 "%.0f" (fun f -> 100.0 *. f);
      pop ~until:t_fault "pre-pop";
      pop ~since:post "post-pop";
      col "TTR(s)" 10 "%s" (fun r ->
          match episode r with
          | Some { Collector.time_to_repair = Some ttr; _ } -> Printf.sprintf "%.0f" ttr
          | Some _ -> "unrepaired"
          | None -> "?");
      peak "peak-loss" (fun e -> e.Collector.peak_loss);
      peak "peak-incorr" (fun e -> e.Collector.peak_incorrect);
      stat ~since:post "post-incorr" 12 "%.2e" (fun s -> s.Collector.incorrect_rate);
      stat ~since:post "post-loss" 12 "%.2e" (fun s -> s.Collector.loss_rate);
    ]
    ~base:(base_config size ~seed)
    ~trace:(Trace.overnet ~scale ~duration (Rng.create (seed + 4000)))
    (deltas
       (fun fraction ->
         inject
           [ Schedule.crash_fraction ~label:(label fraction) ~time:t_fault fraction ])
       (match size with
       | Quick -> [ 0.10; 0.25; 0.50 ]
       | Medium | Full -> [ 0.10; 0.20; 0.30; 0.40; 0.50 ]))

(* the uniform base link model vs Gilbert-Elliott bursts at the same
   long-run average loss *)
let uniform avg c = { c with Sim.loss_rate = avg }

let bursty avg =
  inject
    [
      Schedule.set_base ~label:"bursty-loss" ~time:0.0
        (Netfault.bursty ~avg_loss:avg ~burst:10.0);
    ]

(* E-faults B: bursty (Gilbert-Elliott) vs uniform loss at the same
   long-run average rate. *)
let bursty_loss size ~seed =
  header "E-faults B: bursty vs uniform network loss at equal average rate";
  gnutella_sweep size ~seed
    [
      key "model" 10 "%s" fst;
      key "avg%" 8 "%.1f" (fun (_, avg) -> 100.0 *. avg);
      col "raw-achieved" 12 "%.4f" (fun (_, live) ->
          let n = Netsim.Net.stats (Live.net live) in
          if n.Netsim.Net.sent = 0 then 0.0
          else
            float_of_int (n.Netsim.Net.dropped_loss + n.Netsim.Net.dropped_fault)
            /. float_of_int n.Netsim.Net.sent);
      loss "lookup-loss" 12;
      incorrect 14;
      rdp 8;
      control 10;
    ]
    (List.concat_map
       (fun avg -> [ (("uniform", avg), uniform avg); (("bursty-10", avg), bursty avg) ])
       (match size with Quick -> [ 0.03 ] | Medium | Full -> [ 0.01; 0.03; 0.05 ]))

(* E-failslow: fail-slow victims (slower processing, not crashed) and
   what they do to the failure detector and the lookup-latency tail.
   Multiplicative slowdowns stretch per-message delays but stay inside
   the probe timeout; additive processing delays past t_out/2 per
   direction push probe RTTs over the timeout and manufacture false
   suspicions of nodes that are alive. *)
let fail_slow size ~seed =
  header "E-failslow: fail-slow nodes, detector accuracy and latency tail";
  let t_fault = warmup_for size in
  (* a bounded fault interval: additive slowdowns past the probe timeout
     trigger per-hop ack retransmit storms (the pathology under study),
     which are expensive to simulate -- keep the faulted window short *)
  let fault_len = match size with Quick -> 1800.0 | Medium | Full -> 3600.0 in
  let duration = t_fault +. fault_len +. 900.0 in
  Printf.printf
    "fail-slow injected at t=%.0fs for %.0fs; metrics over the faulted interval\n"
    t_fault fault_len;
  let since = t_fault and until = t_fault +. fault_len in
  let faulted head width fmt get = stat ~since ~until head width fmt get in
  let delay head q =
    col head 8 "%.3f" (fun (_, live) ->
        Hist.quantile (Collector.lookup_delay_hist ~since ~until (Live.collector live)) q)
  in
  let fractions =
    match size with Quick -> [ 0.10; 0.25 ] | Medium | Full -> [ 0.05; 0.10; 0.25; 0.50 ]
  in
  sweep
    [
      key "slowdown" 10 "%s" fst;
      col "frac%" 6 "%.0f" (fun ((_, f), _) -> 100.0 *. f);
      faulted "susp" 6 "%d" (fun s -> s.Collector.suspicions);
      faulted "false" 6 "%d" (fun s -> s.Collector.false_suspicions);
      faulted "false-rate" 10 "%.3f" (fun s -> s.Collector.false_suspicion_rate);
      faulted "TTD(s)" 8 "%.1f" (fun s -> s.Collector.detect_latency_mean);
      delay "p50(s)" 0.50;
      delay "p99(s)" 0.99;
      success ~since ~until "success" 9;
    ]
    ~base:(base_config size ~seed)
    ~trace:(gnutella_trace ~duration size ~seed)
    ((("none", 0.0), Fun.id)
    :: List.concat_map
         (fun (lbl, factor, extra) ->
           List.map
             (fun f ->
               ( (lbl, f),
                 inject
                   [
                     Schedule.fail_slow ~label:(Printf.sprintf "slow-%s" lbl) ~factor
                       ~extra ~time:t_fault ~duration:fault_len f;
                   ] ))
             fractions)
         [
           ("x4", 4.0, 0.0);
           ("x20", 20.0, 0.0);
           ("+0.5s", 1.0, 0.5);
           ("+2s", 1.0, 2.0);
         ])

(* E-faults B': the bursty-loss scenario rerun with end-to-end lookup
   retries at the origin (plus root-side duplicate suppression). The
   success column is the fraction of judged lookups with at least one
   correct delivery -- the acceptance bar is >= 0.99 with retries on. *)
let bursty_retries size ~seed =
  header "E-faults B': end-to-end lookup retries under bursty loss";
  (* [volley]: liveness-probe escalation base. 1 = the paper's detector
     (every probe a single packet); 8 rides out message-count bursts *)
  gnutella_sweep size ~seed
    [
      key "model" 10 "%s" (fun (name, _, _) -> name);
      col "detector" 9 "%s" (fun ((_, volley, _), _) ->
          if volley > 1 then Printf.sprintf "volley-%d" volley else "paper");
      col "retries" 8 "%d" (fun ((_, _, retries), _) -> retries);
      success "success" 9;
      loss "lookup-loss" 12;
      incorrect 12;
      class_rate "la/n/s" 10 M.C_lookup_ack;
      control 10;
    ]
    (List.map
       (fun (name, base_adjust, volley, retries) ->
         ( (name, volley, retries),
           fun c ->
             pastry
               (fun p ->
                 {
                   p with
                   Mspastry.Config.e2e_lookup_retries = retries;
                   probe_volley = volley;
                 })
               (base_adjust 0.03 c) ))
       [
         ("uniform", uniform, 1, 0);
         ("uniform", uniform, 1, 3);
         ("bursty-10", bursty, 1, 0);
         ("bursty-10", bursty, 1, 3);
         ("bursty-10", bursty, 8, 0);
         ("bursty-10", bursty, 8, 3);
       ])

(* ------------------------------------------------------------------ *)

(* E-congestion: a lookup storm against bounded per-node capacity. The
   naive overlay (FIFO queues, no backpressure) collapses: control
   messages drown with the lookups, acks and heartbeats are lost, the
   failure detector manufactures suspicions and the repair traffic feeds
   back into the queues. The graceful overlay (control prioritised,
   probe/join backpressure) sheds deferrable work and keeps the ring
   intact, so service recovers as soon as the storm passes. *)

(* queue depth / service rate = 4 s of queueing when saturated — past the
   3 s hop-RTO ceiling, so a FIFO overlay under sustained overload sees
   even delivered acks as timeouts (the collapse feedback loop);
   prioritised control keeps ack delay well under the RTO instead *)
let overload_capacity = { Netsim.Net.service_rate = 6.0; queue_limit = 24 }

(* a variant's capacity queues: FIFO without backpressure, or control
   first with probe/join backpressure *)
let overload ~graceful c =
  pastry
    (fun p -> { p with Mspastry.Config.backpressure = graceful })
    { c with Sim.prioritize_control = graceful }

let congestion size ~seed =
  header "E-congestion: lookup storm, collapse vs graceful degradation";
  let warmup = warmup_for size in
  let storm_rate, storm_len =
    match size with
    | Quick -> (1.0, 1200.0)
    | Medium -> (1.0, 1800.0)
    | Full -> (2.0, 3600.0)
  in
  let t_storm = warmup +. 600.0 in
  let storm_end = t_storm +. storm_len in
  let duration = storm_end +. 1800.0 in
  Printf.printf
    "capacity %.0f msg/s/node, queue %d; +%.1f lookups/s/node for %.0fs at t=%.0fs\n"
    overload_capacity.Netsim.Net.service_rate
    overload_capacity.Netsim.Net.queue_limit storm_rate storm_len t_storm;
  sweep
    [
      key "variant" 10 "%s" Fun.id;
      success ~since:t_storm ~until:storm_end "storm-ok" 9;
      success ~since:storm_end "after-ok" 9;
      control ~since:t_storm ~until:storm_end 9;
      queue_pct "q-p50(s)" 10 ~since:t_storm ~until:duration 50.0;
      queue_pct "q-p99(s)" 9 ~since:t_storm ~until:duration 99.0;
      congestion_drops "cong-drop" 9;
      col "collapse-w" 10 "%d" (fun (_, live) ->
          List.length (Collector.collapse_windows (Live.collector live)));
      ring 9;
    ]
    ~base:
      (inject
         [
           Schedule.lookup_storm ~label:"storm" ~time:t_storm ~duration:storm_len
             storm_rate;
         ]
         (base_config size ~seed))
    ~trace:(gnutella_trace ~duration size ~seed)
    (let capped c = { c with Sim.capacity = Some overload_capacity } in
     [
       ("uncapped", overload ~graceful:false);
       ("naive", fun c -> overload ~graceful:false (capped c));
       ("graceful", fun c -> overload ~graceful:true (capped c));
     ])

(* E-flashcrowd: a mass-join flash crowd against a small steady overlay
   with bounded capacity. Join traffic converges on the few live nodes;
   without admission control it evicts lookups and acks from their
   queues. The graceful overlay defers join service and collapses probe
   volleys while overloaded, trading join latency for lookup goodput. *)
let flash_crowd size ~seed =
  header "E-flashcrowd: mass-join flash crowd, admission control on vs off";
  let n_avg, joiners, over =
    match size with
    | Quick -> (60, 300, 600.0)
    | Medium -> (150, 750, 600.0)
    | Full -> (400, 2000, 1200.0)
  in
  let warmup = 1800.0 in
  let t_crowd = warmup +. 600.0 in
  let crowd_end = t_crowd +. 1500.0 in
  let duration = crowd_end +. 1200.0 in
  Printf.printf
    "Poisson target n_avg=%d nodes (pre-pop: population reached), %d joiners over %.0fs \
     at t=%.0fs; capacity %.0f msg/s, queue %d\n"
    n_avg joiners over t_crowd overload_capacity.Netsim.Net.service_rate
    overload_capacity.Netsim.Net.queue_limit;
  let trace =
    Trace.poisson (Rng.create (seed + 5000)) ~n_avg ~session_mean:(hours 4.0) ~duration
  in
  let base =
    {
      (base_config size ~seed) with
      Sim.lookup_rate = 0.1;
      warmup;
      window = 300.0;
      capacity = Some overload_capacity;
      fault_schedule =
        [ Schedule.flash_crowd ~label:"crowd" ~time:t_crowd ~over joiners ];
    }
  in
  let crowd_ok = ref [] in
  table
    [
      key "variant" 10 "%s" Fun.id;
      stat ~since:warmup ~until:t_crowd "pre-pop" 7 "%.1f" (fun s ->
          s.Collector.mean_population);
      success ~since:t_crowd ~until:crowd_end "crowd-ok" 9;
      success ~since:crowd_end "after-ok" 9;
      stat ~since:t_crowd ~until:crowd_end "joins" 8 "%d" (fun s -> s.Collector.joins);
      col "join-fail" 9 "%d" (fun (_, live) -> Live.join_failures live);
      control ~since:t_crowd ~until:crowd_end 9;
      queue_pct "q-p99(s)" 9 ~since:t_crowd ~until:duration 99.0;
      congestion_drops "cong-drop" 10;
      ring 9;
    ]
    [ "naive"; "graceful" ]
    (fun name ->
      let live = Sim.run (overload ~graceful:(name = "graceful") base) ~trace in
      let s = Live.summary ~since:t_crowd ~until:crowd_end live in
      crowd_ok := (name, s.Collector.success_rate) :: !crowd_ok;
      (name, live));
  match (List.assoc_opt "naive" !crowd_ok, List.assoc_opt "graceful" !crowd_ok) with
  | Some naive, Some graceful when naive > 0.0 ->
      Printf.printf "graceful/naive success ratio during crowd: %.2fx\n%!"
        (graceful /. naive)
  | _ -> ()

(* The fixed-cost CI gates replay 40 minutes of small Gnutella churn. *)
let gate_config ~seed =
  {
    Sim.default_config with
    seed;
    warmup = 600.0;
    window = 300.0;
    manifest_out = !manifest_out;
  }

let gate_trace ~seed =
  Trace.gnutella ~scale:0.02 ~duration:2400.0 (Rng.create (seed + 1000))

(* CI smoke for the congestion path: fixed cost, fails loudly if the
   capacity model, the queue taps or the backpressure signal stayed
   cold. *)
let congestion_smoke ~seed =
  header "congestion-smoke: capacity model, queue taps and backpressure (CI)";
  let off =
    {
      (gate_config ~seed) with
      Sim.fault_schedule =
        [ Schedule.lookup_storm ~label:"smoke-storm" ~time:900.0 ~duration:900.0 2.0 ];
    }
  in
  let capped =
    { off with Sim.capacity = Some { Netsim.Net.service_rate = 4.0; queue_limit = 8 } }
  in
  let run config = Sim.run config ~trace:(gate_trace ~seed) in
  let naive = run (overload ~graceful:false capped) in
  let graceful = run (overload ~graceful:true capped) in
  let off = run off in
  let drops l = (Netsim.Net.stats (Live.net l)).Netsim.Net.dropped_congestion in
  let samples l = Hist.count (Collector.queue_delay_hist (Live.collector l)) in
  Printf.printf
    "naive: %d congestion drops, %d queue samples; graceful: %d drops; off: %d drops\n%!"
    (drops naive) (samples naive) (drops graceful) (drops off);
  if drops naive = 0 then failwith "congestion-smoke: capacity model never dropped";
  if samples naive = 0 then failwith "congestion-smoke: queue taps never fired";
  if drops off <> 0 then failwith "congestion-smoke: drops with the model off";
  if samples off <> 0 then failwith "congestion-smoke: queue samples with the model off";
  let audit = Live.ring_audit graceful in
  Printf.printf "graceful ring agreement: %.3f (%d audited)\n%!"
    audit.Harness.Oracle.agreement audit.Harness.Oracle.audited;
  print_endline "congestion-smoke ok"

(* ------------------------------------------------------------------ *)

(* E-adversary: Byzantine nodes. A fraction f of the live overlay is
   compromised mid-run with the full behaviour mix — misrouting + silent
   dropping (the transport stays alive, so the PR-3 liveness detector
   sees nothing) + eclipse-style state poisoning through forged-sender
   gossip. The baseline is the paper's protocol, which assumes fail-stop
   and trusts both gossip and previous hops; the hardened variant turns
   on gossip verification, progress checking with origin-side diversion,
   and the per-arc join-rate filter. Both run end-to-end retries, so the
   comparison isolates the hardening itself. *)

let adversary_behavior = { Advfault.misroute = true; drop = true; poison = true }

(* an active eclipse legitimately multiplies maintenance traffic (forged
   identifiers quadruple the id density around every victim), so attack
   phases cost ~an order of magnitude more events per simulated second
   than calm ones — Quick is deliberately small (minutes for the whole
   f-sweep, not hours), and the CI smoke buys an even shorter attack *)
let adversary_n = function Quick -> 40 | Medium -> 250 | Full -> 1000
let adversary_warmup = function Quick -> 900.0 | size -> warmup_for size
let attack_start size = adversary_warmup size +. 300.0

let adversary_trace size ~seed ~duration =
  Trace.poisson (Rng.create (seed + 7000)) ~n_avg:(adversary_n size)
    ~session_mean:(hours 4.0) ~duration

let adversary_config size ~seed =
  { (base_config size ~seed) with Sim.warmup = adversary_warmup size; window = 300.0 }

let adversary_run ?attack_len size ~seed ~fraction ~hardened =
  let t_attack = attack_start size in
  let attack_len =
    match attack_len with
    | Some l -> l
    | None -> (
        match size with Quick -> 600.0 | Medium -> 1800.0 | Full -> 3600.0)
  in
  let harden p =
    if hardened then
      {
        p with
        Mspastry.Config.verify_gossip = true;
        progress_check = true;
        join_rate_limit = 8;
      }
    else p
  in
  let attack =
    if fraction > 0.0 then
      [
        Schedule.adversary ~label:"adversary" ~time:t_attack ~fraction
          adversary_behavior;
      ]
    else []
  in
  Sim.run
    (pastry
       (fun p -> harden { p with Mspastry.Config.e2e_lookup_retries = 3 })
       (inject attack { (adversary_config size ~seed) with Sim.lookup_rate = 0.05 }))
    ~trace:(adversary_trace size ~seed ~duration:(t_attack +. attack_len))

let adversary size ~seed =
  header "E-adversary: success and ring agreement vs malicious fraction f";
  Printf.printf "behaviour: %s (adversaries stay probe-alive)\n"
    (Advfault.behavior_name adversary_behavior);
  let t_attack = attack_start size in
  let attacked head width get = stat ~since:t_attack head width "%d" get in
  let fractions = [ 0.0; 0.05; 0.1; 0.2; 0.3 ] in
  let outcomes = ref [] in
  table
    [
      key "f" 6 "%g" fst;
      key "variant" 9 "%s" (fun (_, h) -> if h then "hardened" else "baseline");
      success ~since:t_attack "success" 9;
      ring 9;
      col "eclipsed" 10 "%s" (fun (_, live) ->
          let e = Live.eclipse_audit live in
          Printf.sprintf "%6d/%-4d" e.Live.poisoned_entries e.Live.poisoned_nodes);
      attacked "prog-susp" 10 (fun s -> s.Collector.progress_suspicions);
      attacked "poison-rej" 11 (fun s -> s.Collector.poison_rejections);
      attacked "false-susp" 11 (fun s -> s.Collector.false_suspicions);
    ]
    (List.concat_map (fun f -> [ (f, false); (f, true) ]) fractions)
    (fun ((fraction, hardened) as k) ->
      let live = adversary_run size ~seed ~fraction ~hardened in
      let s = Live.summary ~since:t_attack live in
      outcomes :=
        (k, (s.Collector.success_rate, (Live.ring_audit live).Harness.Oracle.agreement))
        :: !outcomes;
      (k, live));
  List.iter
    (fun f ->
      let b_ok, b_ring = List.assoc (f, false) !outcomes
      and h_ok, h_ring = List.assoc (f, true) !outcomes in
      Printf.printf "f=%-5g hardened margin: success %+.4f, ring agreement %+.3f\n"
        f (h_ok -. b_ok) (h_ring -. b_ring))
    fractions;
  (* sybil join flood against the per-arc admission filter: crafted ids
     crowd one victim's leaf-set arc; the limited variant defers the
     burst instead of swallowing it *)
  let joiners, over, lifetime =
    match size with Quick -> (40, 120.0, 300.0) | _ -> (120, 300.0, 600.0)
  in
  Printf.printf "\nsybil flood: %d joiners over %.0fs living %.0fs\n" joiners
    over lifetime;
  (* joins and join-lat count the joins completed after the attack
     starts; a deferred join completes later rather than failing *)
  sweep
    [
      key "variant" 10 "%s" Fun.id;
      attacked "joins" 8 (fun s -> s.Collector.joins);
      stat ~since:t_attack "join-lat" 10 "%.1fs" (fun s -> s.Collector.join_latency_mean);
      col "join-fail" 10 "%d" (fun (_, live) -> Live.join_failures live);
      ring 9;
    ]
    ~base:
      (inject
         [ Schedule.sybil_flood ~label:"sybil" ~time:t_attack ~over ~lifetime joiners ]
         (adversary_config size ~seed))
    ~trace:(adversary_trace size ~seed ~duration:(t_attack +. over +. lifetime +. 600.0))
    (List.map
       (fun (name, limit) ->
         (name, pastry (fun p -> { p with Mspastry.Config.join_rate_limit = limit })))
       [ ("open", 0); ("limited", 4) ])

(* Fixed-cost CI gate for the adversarial axis: at f = 0.2 the hardened
   overlay must beat the unhardened baseline on success AND ring
   agreement, the poisoning vector must actually bite in the baseline
   and be fully rejected when verification is on, and a zero-adversary
   default-config run must keep every hardening path cold. *)
let adversary_smoke ~seed =
  header "adversary-smoke: hardening beats baseline at f=0.2 (CI)";
  let run fraction hardened =
    let live = adversary_run Quick ~attack_len:450.0 ~seed ~fraction ~hardened in
    ( live,
      Live.summary ~since:(attack_start Quick) live,
      Live.ring_audit live,
      Live.eclipse_audit live )
  in
  let _, pure_s, _, pure_ecl = run 0.0 false in
  let b_live, b_s, b_audit, b_ecl = run 0.2 false in
  let _, h_s, h_audit, h_ecl = run 0.2 true in
  Printf.printf
    "baseline: success=%.4f ring=%.3f eclipsed=%d adversaries=%d\n\
     hardened: success=%.4f ring=%.3f eclipsed=%d prog-susp=%d poison-rej=%d\n%!"
    b_s.Collector.success_rate b_audit.Harness.Oracle.agreement
    b_ecl.Live.poisoned_entries
    (Advfault.compromised (Live.adversaries b_live))
    h_s.Collector.success_rate h_audit.Harness.Oracle.agreement
    h_ecl.Live.poisoned_entries h_s.Collector.progress_suspicions
    h_s.Collector.poison_rejections;
  if pure_s.Collector.progress_suspicions <> 0 then
    failwith "adversary-smoke: progress suspicions in a zero-adversary run";
  if pure_s.Collector.poison_rejections <> 0 then
    failwith "adversary-smoke: poison rejections in a zero-adversary run";
  if pure_ecl.Live.poisoned_entries <> 0 then
    failwith "adversary-smoke: poisoned state in a zero-adversary run";
  if Advfault.compromised (Live.adversaries b_live) = 0 then
    failwith "adversary-smoke: adversary injection never compromised anyone";
  if b_ecl.Live.poisoned_entries = 0 then
    failwith "adversary-smoke: eclipse poisoning never landed in the baseline";
  if h_ecl.Live.poisoned_entries <> 0 then
    failwith "adversary-smoke: poisoned state survived gossip verification";
  if h_s.Collector.progress_suspicions = 0 then
    failwith "adversary-smoke: progress checking never fired";
  if h_s.Collector.poison_rejections = 0 then
    failwith "adversary-smoke: gossip verification never rejected anything";
  if h_s.Collector.success_rate <= b_s.Collector.success_rate then
    failwith "adversary-smoke: hardened success did not beat the baseline";
  if h_audit.Harness.Oracle.agreement < b_audit.Harness.Oracle.agreement then
    failwith "adversary-smoke: hardened ring agreement below the baseline";
  print_endline "adversary-smoke ok"

(* ------------------------------------------------------------------ *)

(* CI smoke: a tiny fixed-cost end-to-end run that exercises node-fault
   injection, the suspicion list and end-to-end retries in a few seconds
   of wall time. *)
let smoke ~seed =
  header "smoke: tiny end-to-end run with node faults (CI)";
  let config =
    {
      (gate_config ~seed) with
      Sim.fault_schedule =
        [
          Schedule.fail_slow ~label:"smoke-slow" ~extra:2.0 ~time:900.0
            ~duration:600.0 0.2;
          Schedule.flapping ~label:"smoke-flap" ~time:1500.0 ~duration:600.0
            ~period:120.0 ~duty:0.3 0.1;
        ];
    }
  in
  let live =
    Sim.run
      (pastry (fun p -> { p with Mspastry.Config.e2e_lookup_retries = 2 }) config)
      ~trace:(gate_trace ~seed)
  in
  let s = Live.summary live in
  let n = Netsim.Net.stats (Live.net live) in
  Printf.printf
    "nodes=%d lookups=%d success=%.3f loss=%.2e suspicions=%d false=%d node-drops=%d\n%!"
    (Live.nodes_created live) s.Collector.lookups_sent s.Collector.success_rate
    s.Collector.loss_rate s.Collector.suspicions s.Collector.false_suspicions
    n.Netsim.Net.dropped_node;
  if s.Collector.lookups_sent = 0 then failwith "smoke: no lookups were sent";
  if s.Collector.suspicions = 0 then failwith "smoke: no suspicions were recorded";
  if n.Netsim.Net.dropped_node = 0 then failwith "smoke: node-fault hook never fired";
  print_endline "smoke ok"

(* ---- the registry ------------------------------------------------------ *)

let experiments =
  [
    ("fig3", fig3);
    ("topology", topology_table);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("ablation", ablation);
    ("selftuning", selftuning);
    ("suppression", suppression);
    ("structure", structure_ablation);
    ("consistency", consistency);
    ("massive-failure", massive_failure);
    ("bursty-loss", bursty_loss);
    ("fail-slow", fail_slow);
    ("bursty-retries", bursty_retries);
    ("congestion", congestion);
    ("flash-crowd", flash_crowd);
    ("adversary", adversary);
    ("apps", apps);
    ("fig8", fig8);
  ]

let all size ~seed = List.iter (fun (_, run) -> run size ~seed) experiments

let runners =
  experiments
  @ [
      ("adversary-smoke", fun _ -> adversary_smoke);
      ("congestion-smoke", fun _ -> congestion_smoke);
      ("smoke", fun _ -> smoke);
    ]
