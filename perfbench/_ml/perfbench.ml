(* One simulation of one benchmark workload, in a fresh process.

     perfbench.exe --workload NAME --seed N --mode time|trace|replay
                   --out DIR

   [time] sets the workload up (churn trace + [Sim.live_of_trace])
   [setups] times, keeps the first set-up and runs it to the end of the
   trace plus drain with tracing off. It prints one JSON object of raw
   measurements: the time spent in [Live.run_until] (wall, and at the
   reference speed of [ref_s]), set-up times, peak heap, GC counters, the
   §5.2 outcome metrics and the simulation counters.

   [trace] runs the same simulation with [Repro_obs.Profile] on around
   [Live.run_until] and nothing else added, and reports the profile.

   [replay] runs it with a [Net.on_send] tap and a delivery hook recording
   the work the run did, then times replay kernels on state captured from
   that run (live leaf sets and routing tables, sampled endpoint pairs,
   the workload's own fault model, its timer-queue shape and its metrics
   feed). Nothing in this run is timed but the kernels.

   The simulation counters of [trace] and [replay] must equal those of a
   [time] run of the same seed: neither the profiler nor the taps may
   perturb the simulation. Every mode writes a run manifest through
   [Sim.config.manifest_out]. perfbench/run.py drives this program and
   turns its output into the benchmark's metrics. *)

module Sim = Harness.Sim
module Live = Sim.Live
module Rng = Repro_util.Rng
module M = Mspastry.Message
module Node = Mspastry.Node
module Collector = Overlay_metrics.Collector
module Netfault = Repro_faults.Netfault
module Schedule = Repro_faults.Schedule
module Profile = Repro_obs.Profile
module J = Repro_obs.Json

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let hours h = h *. 3600.0

(* ---- workloads ---- *)

type workload = {
  name : string;
  make_trace : Rng.t -> Churn.Trace.t;
  config : seed:int -> Sim.config;
  verdict_model : unit -> Netfault.t;
      (* the link-fault model the workload's net consults per send; a
         fresh instance, since Gilbert-Elliott chains are stateful *)
}

let lossy () = Netfault.bursty ~avg_loss:0.03 ~burst:10.0

let workloads =
  [
    {
      (* the paper's workhorse: Figs 4/6 base, joins and leaf-set repair *)
      name = "churn-gnutella";
      make_trace = Churn.Trace.gnutella ~scale:0.06 ~duration:(hours 2.5);
      config = (fun ~seed -> { Sim.default_config with seed; warmup = 1800.0 });
      verdict_model = (fun () -> Netfault.none);
    };
    {
      (* near-static membership, heavy lookup load: reads of routing
         state; Mercator gives every endpoint its own router *)
      name = "lookup-steady";
      make_trace =
        (fun rng ->
          Churn.Trace.poisson rng ~n_avg:100 ~session_mean:(hours 8.0)
            ~duration:1200.0);
      config =
        (fun ~seed ->
          {
            Sim.default_config with
            seed;
            topology = Sim.Mercator;
            lookup_rate = 1.0;
            warmup = 300.0;
          });
      verdict_model = (fun () -> Netfault.none);
    };
    {
      (* E-faults B': bursty loss from t = 0 survived by probe volleys and
         end-to-end retries, a 20% mass crash, every message through a
         capacity model with control prioritised. Backpressure stays off:
         with it on, one seed in five collapsed (success 0.62, ring
         agreement 0.04, 15.6 M leaf-set probes, 15x the wall time) *)
      name = "faults-lossy";
      make_trace = Churn.Trace.gnutella ~scale:0.06 ~duration:(hours 1.5);
      config =
        (fun ~seed ->
          {
            Sim.default_config with
            seed;
            warmup = 1800.0;
            pastry =
              {
                Mspastry.Config.default with
                probe_volley = 8;
                e2e_lookup_retries = 3;
              };
            capacity = Some { Netsim.Net.service_rate = 200.0; queue_limit = 64 };
            prioritize_control = true;
            fault_schedule =
              [
                Schedule.set_base ~label:"bursty-loss" ~time:0.0 (lossy ());
                Schedule.crash_fraction ~label:"crash-20%" ~time:3600.0 0.2;
              ];
          });
      verdict_model = lossy;
    };
  ]

(* ---- JSON helpers ---- *)

let num x = if Float.is_finite x then J.Float x else J.Null
let obj_f kvs = J.Obj (List.map (fun (k, v) -> (k, num v)) kvs)

let registry_json live =
  J.Obj
    (List.map
       (fun (k, v) ->
         ( k,
           match v with
           | Repro_obs.Registry.Int i -> J.Int i
           | Repro_obs.Registry.Float f -> num f ))
       (Repro_obs.Registry.dump (Live.registry live)))

(* ---- set-up, run, outcomes ---- *)

type setup = {
  trace : Churn.Trace.t;
  config : Sim.config;
  live : Live.t;
  trace_gen_s : float;
  live_create_s : float;
}

(* Like the paper, which replays one measured trace per workload, every
   run of a workload replays the same churn trace; the seed draws the
   rest (topology, node identifiers, lookup keys, loss). Drawing the
   trace from the seed as well made the control traffic of
   churn-gnutella vary by 28% (interquartile range over median) across
   ten seeds, against 8% with the trace fixed. *)
let trace_seed = 1002

let set_up w ~seed ~manifest =
  let t0 = now () in
  let trace = w.make_trace (Rng.create trace_seed) in
  let t1 = now () in
  let config = { (w.config ~seed) with Sim.manifest_out = manifest } in
  let live = Sim.live_of_trace config ~trace in
  let t2 = now () in
  { trace; config; live; trace_gen_s = t1 -. t0; live_create_s = t2 -. t1 }

(* The host alternates between a fast and a slow state about 1.4x apart,
   each lasting seconds, so identical runs vary by up to 30% in raw wall
   time. A fixed reference loop is timed right after each slice of
   measured work, and the slice is rescaled by it to seconds at the
   reference speed [ref_s].

   The loop must follow the host and nothing of the program. It allocates
   nothing, so it can neither trigger nor pay for a collection of the
   simulation's garbage, and its data is a ring outside the OCaml heap.
   It writes and reads the ring sequentially from where it last stopped,
   the access pattern of allocation in a minor heap, and the slow state
   shows there. Over ten churn-gnutella seeds it cut the spread of the
   throughput (interquartile range over median) from 12.9% to 6.5%. On
   seven identical runs whose raw throughput spread 25%, timed side by
   side, it left 2.4%, while loops that stayed inside the core's caches
   did not follow the slow state (arithmetic: 23%; 4 MB streamed twice,
   hitting the last-level cache: 17%; a dependent-load chase through
   8 MB: 18%).

   [ref_s] is the loop's time on the development host in its fast state;
   any constant would do, it only fixes the scale. *)
let ref_s = 3.0e-4
let ref_words = 1 lsl 18
let ref_ring = Bigarray.Array1.create Bigarray.int Bigarray.c_layout ref_words
let () = Bigarray.Array1.fill ref_ring 0
let ref_cursor = ref 0

let reference_pass () =
  let c = ref !ref_cursor and acc = ref 0 in
  for _ = 1 to 120_000 do
    let i = !c land (ref_words - 1) in
    Bigarray.Array1.unsafe_set ref_ring i (!acc + i);
    acc := !acc + Bigarray.Array1.unsafe_get ref_ring ((i + 3) land (ref_words - 1));
    incr c
  done;
  ref_cursor := !c land (ref_words - 1);
  ignore (Sys.opaque_identity !acc)

(* [w] wall seconds of work just done, rescaled to seconds at the
   reference speed. The loop runs twice and only the second pass is
   timed, as in the measurements above. *)
let at_ref_speed w =
  reference_pass ();
  let t0 = now () in
  reference_pass ();
  w *. ref_s /. (now () -. t0)

let end_time s = Churn.Trace.duration s.trace +. s.config.Sim.drain

(* Run to the end of the trace plus drain in slices of 60 simulated
   seconds, returning the wall seconds spent in [Live.run_until] and the
   same time at the reference speed. *)
let run_to_end s =
  let stop = end_time s in
  let rec go t wall at_ref =
    if t >= stop then (wall, at_ref)
    else begin
      let t' = Float.min stop (t +. 60.0) in
      let t0 = now () in
      Live.run_until s.live t';
      let w = now () -. t0 in
      (* keep the reference loop out of a running profile *)
      let prof = Profile.enabled () in
      if prof then Profile.set_enabled false;
      let at_ref = at_ref +. at_ref_speed w in
      if prof then Profile.set_enabled true;
      go t' (wall +. w) at_ref
    end
  in
  go 0.0 0.0 0.0

(* simulated node-seconds the trace asks for: the integral of its
   active population over [0, duration] *)
let node_seconds trace =
  let duration = Churn.Trace.duration trace in
  let area = ref 0.0 and active = ref 0 and last = ref 0.0 in
  Array.iter
    (fun ev ->
      let t = Float.min ev.Churn.Trace.time duration in
      area := !area +. (float_of_int !active *. (t -. !last));
      last := t;
      match ev.Churn.Trace.kind with
      | Churn.Trace.Join -> incr active
      | Churn.Trace.Leave -> decr active)
    (Churn.Trace.events trace);
  !area +. (float_of_int !active *. (duration -. !last))

(* the deterministic §5.2 outcome of a finished run, judged over
   [warmup, trace end] *)
let outcomes s =
  let collector = Live.collector s.live in
  let t0 = now () in
  let sm =
    Collector.summary ~since:s.config.Sim.warmup
      ~until:(Churn.Trace.duration s.trace) collector
  in
  let summary_s = now () -. t0 in
  let ring = Live.ring_audit s.live in
  let delays = Collector.lookup_delay_hist collector in
  let succeeded =
    int_of_float (Float.round (sm.Collector.success_rate *. float_of_int sm.Collector.lookups_sent))
  in
  let j =
    J.Obj
      [
        ("lookups_judged", J.Int sm.Collector.lookups_sent);
        ("lookups_succeeded", J.Int succeeded);
        ("incorrect_deliveries", J.Int sm.Collector.incorrect_deliveries);
        ("lookup_success", num sm.Collector.success_rate);
        ("delay_samples", J.Int (Repro_obs.Hist.count delays));
        ("delay_p50_ms", num (1000.0 *. Repro_obs.Hist.quantile delays 0.50));
        ("delay_p95_ms", num (1000.0 *. Repro_obs.Hist.quantile delays 0.95));
        ("delay_p99_ms", num (1000.0 *. Repro_obs.Hist.quantile delays 0.99));
        ("rdp_mean", num sm.Collector.rdp_mean);
        ("control_per_node_s", num sm.Collector.control_per_node_per_s);
        ("control_msgs", num sm.Collector.control_msgs);
        ("hops_mean", num sm.Collector.hops_mean);
        ("suspicions", J.Int sm.Collector.suspicions);
        ("false_suspicions", J.Int sm.Collector.false_suspicions);
        ("ring_agreement", num ring.Harness.Oracle.agreement);
        ("ring_audited", J.Int ring.Harness.Oracle.audited);
        ("join_failures", J.Int (Live.join_failures s.live));
        ("nodes_created", J.Int (Live.nodes_created s.live));
      ]
  in
  (j, summary_s)

(* ---- time mode ---- *)

(* set-ups timed per [time] run: one takes about a millisecond, so the
   caller takes the median of many *)
let setups = 31

let time_mode w ~seed ~manifest =
  let timed_setup ~manifest =
    let r = set_up w ~seed ~manifest in
    let f = at_ref_speed 1.0 in
    (r, (r.trace_gen_s *. f, r.live_create_s *. f))
  in
  (* every set-up is timed on a heap that holds set-ups only, as in a
     fresh process; the first one is the one that runs *)
  let s, first = timed_setup ~manifest in
  let setup_times =
    first :: List.init (setups - 1) (fun _ -> snd (timed_setup ~manifest:None))
  in
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let minor0 = Gc.minor_words () in
  let wall, run_ref_s = run_to_end s in
  let minor = Gc.minor_words () -. minor0 in
  let g1 = Gc.quick_stat () in
  let top_heap_words = g1.Gc.top_heap_words in
  Live.close s.live;
  let outcome, _ = outcomes s in
  let es = Simkit.Engine.stats (Live.engine s.live) in
  J.Obj
    [
      ("mode", J.String "time");
      ("seed", J.Int seed);
      ("ocaml", J.String Sys.ocaml_version);
      ("run_wall_s", num wall);
      ("run_ref_s", num run_ref_s);
      ("node_seconds", num (node_seconds s.trace));
      ("sim_seconds", num (Churn.Trace.duration s.trace));
      ("peak_heap_mb", num (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.0));
      ("trace_gen_s", J.List (List.map (fun (a, _) -> num a) setup_times));
      ("live_create_s", J.List (List.map (fun (_, b) -> num b) setup_times));
      ( "gc",
        obj_f
          [
            ("minor_words", minor);
            ("minor_words_per_event", minor /. float_of_int (max 1 es.Simkit.Engine.fired));
            ("major_words", g1.Gc.major_words -. g0.Gc.major_words);
            ( "major_collections",
              float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
          ] );
      ("outcome", outcome);
      ("counters", registry_json s.live);
    ]

(* ---- trace mode: the profile alone ---- *)

let trace_mode w ~seed ~manifest =
  let s = set_up w ~seed ~manifest in
  Profile.reset ();
  Profile.set_enabled true;
  let wall, run_ref_s = run_to_end s in
  Profile.set_enabled false;
  let report = Profile.report () in
  Live.close s.live;
  let outcome, summary_s = outcomes s in
  J.Obj
    [
      ("mode", J.String "trace");
      ("seed", J.Int seed);
      ("run_wall_s", num wall);
      ("run_ref_s", num run_ref_s);
      ("summary_s", num summary_s);
      ( "profile",
        J.Obj
          [
            ("wall_s", num (Int64.to_float report.Profile.wall_ns *. 1e-9));
            ("unattributed_s", num (Int64.to_float report.Profile.unattributed_ns *. 1e-9));
            ( "phases",
              J.Obj
                (List.map
                   (fun (en : Profile.entry) ->
                     ( en.Profile.name,
                       J.Obj
                         [
                           ("self_s", num (Int64.to_float en.Profile.self_ns *. 1e-9));
                           ("calls", J.Int en.Profile.calls);
                         ] ))
                   report.Profile.entries) );
          ] );
      ("outcome", outcome);
      ("counters", registry_json s.live);
    ]

(* ---- replay mode: taps, then kernels on the run's state ---- *)

(* each kernel repeats its batch for at least this long *)
let kernel_min_s = 0.25

(* ns per operation of [batch] (which returns the operations it did) *)
let ns_per_op batch =
  let t0 = now () in
  let ops = ref 0 in
  while now () -. t0 < kernel_min_s do
    ops := !ops + batch ()
  done;
  (now () -. t0) *. 1e9 /. float_of_int !ops

(* growable parallel arrays for the metrics feed the run produced *)
module Feed = struct
  (* kind: 0 = record_send (arg = class index), 1 = lookup_sent (arg =
     seq), 2 = lookup_delivered (arg = seq, hops in [hops]) *)
  type t = {
    mutable kind : Bytes.t;
    mutable time : float array;
    mutable arg : int array;
    mutable hops : int array;
    mutable n : int;
  }

  let cap_limit = 1 lsl 19

  let create () =
    { kind = Bytes.create 1024; time = Array.make 1024 0.0; arg = Array.make 1024 0;
      hops = Array.make 1024 0; n = 0 }

  let push t k ~time ~arg ~hops =
    if t.n < cap_limit then begin
      if t.n = Array.length t.time then begin
        let cap = 2 * t.n in
        let kind = Bytes.create cap in
        Bytes.blit t.kind 0 kind 0 t.n;
        t.kind <- kind;
        t.time <- Array.append t.time (Array.make t.n 0.0);
        t.arg <- Array.append t.arg (Array.make t.n 0);
        t.hops <- Array.append t.hops (Array.make t.n 0)
      end;
      Bytes.unsafe_set t.kind t.n (Char.unsafe_chr k);
      t.time.(t.n) <- time;
      t.arg.(t.n) <- arg;
      t.hops.(t.n) <- hops;
      t.n <- t.n + 1
    end
end

let classes = Array.of_list M.all_classes

let class_index cls =
  let rec go i = if classes.(i) = cls then i else go (i + 1) in
  go 0

let replay_mode w ~seed ~manifest =
  let s = set_up w ~seed ~manifest in
  let live = s.live in
  let net = Live.net live in
  let n_ep = Topology.n_endpoints (Live.topology live) in
  (* endpoint pairs that carried traffic: a uniform reservoir sample,
     from an RNG of the benchmark's own *)
  let sample_rng = Rng.create (seed + 2000) in
  let n_pairs = 4096 in
  let pairs = Array.make n_pairs (0, 0) in
  let seen = ref 0 in
  let src_seen = Array.make n_ep false in
  let feed = Feed.create () in
  let lookup_seen = Hashtbl.create 4096 in
  Netsim.Net.on_send net (fun ~time ~src ~dst msg ->
      let se = src mod n_ep and de = dst mod n_ep in
      src_seen.(se) <- true;
      if !seen < n_pairs then pairs.(!seen) <- (se, de)
      else begin
        let j = Rng.int sample_rng (!seen + 1) in
        if j < n_pairs then pairs.(j) <- (se, de)
      end;
      incr seen;
      let cls = M.classify msg in
      Feed.push feed 0 ~time ~arg:(class_index cls) ~hops:0;
      match msg.M.payload with
      | M.Lookup l when l.M.hops = 0 && not (Hashtbl.mem lookup_seen l.M.seq) ->
          Hashtbl.replace lookup_seen l.M.seq ();
          Feed.push feed 1 ~time ~arg:l.M.seq ~hops:0
      | _ -> ());
  let engine = Live.engine live in
  Live.on_deliver live (fun _ l ->
      Feed.push feed 2 ~time:(Simkit.Engine.now engine) ~arg:l.M.seq ~hops:l.M.hops);
  Live.run_until live (end_time s);
  Live.close live;
  let outcome, _ = outcomes s in
  let es = Simkit.Engine.stats engine in
  let nodes = Array.of_list (Live.active_nodes live) in
  let n_nodes = Array.length nodes in
  let kernels = ref [] in
  let kernel name v = kernels := (name, v) :: !kernels in
  (* pastry: next_hop over the live leaf sets and routing tables *)
  let krng = Rng.create (seed + 3000) in
  let keys = Array.init 1024 (fun _ -> Pastry.Nodeid.random krng) in
  let i = ref 0 in
  kernel "next_hop_ns"
    (ns_per_op (fun () ->
         for _ = 1 to 1024 do
           let node = nodes.(!i mod n_nodes) in
           ignore
             (Pastry.Route.next_hop ~leafset:(Node.leafset node) ~table:(Node.table node)
                ~key:keys.(!i land 1023) ());
           incr i
         done;
         1024));
  (* pastry: remove + re-add a real member on copies of the live leaf
     sets (the pair restores the set exactly, so the state stays live) *)
  let copies =
    Array.to_list nodes
    |> List.filter_map (fun node ->
           let ls = Node.leafset node in
           let members = Array.of_list (Pastry.Leafset.members ls) in
           if members = [||] then None
           else begin
             let c = Pastry.Leafset.create ~l:(Pastry.Leafset.l ls) ~me:(Pastry.Leafset.me ls) in
             Array.iter (fun p -> ignore (Pastry.Leafset.add c p)) members;
             Some (c, members)
           end)
    |> Array.of_list
  in
  let n_copies = Array.length copies in
  let i = ref 0 in
  kernel "leafset_add_remove_ns"
    (ns_per_op (fun () ->
         for _ = 1 to 256 do
           let c, members = copies.(!i mod n_copies) in
           let p = members.(!i / n_copies mod Array.length members) in
           ignore (Pastry.Leafset.remove c p.Pastry.Peer.id);
           ignore (Pastry.Leafset.add c p);
           incr i
         done;
         256));
  let sizes f = Array.fold_left (fun acc n -> acc + f n) 0 nodes in
  kernel "leafset_size_mean"
    (float_of_int (sizes (fun n -> Pastry.Leafset.size (Node.leafset n))) /. float_of_int n_nodes);
  kernel "table_entries_mean"
    (float_of_int (sizes (fun n -> Pastry.Routing_table.count (Node.table n)))
    /. float_of_int n_nodes);
  (* topology: the sampled pairs against a fresh delay oracle of the same
     kind (cold: every new source pays its shortest-path tree), then
     against the warmed one *)
  let pairs = Array.sub pairs 0 (min !seen n_pairs) in
  let n_p = Array.length pairs in
  let fresh =
    Sim.make_topology s.config.Sim.topology ~rng:(Rng.split (Rng.create seed)) ~n_endpoints:n_ep
  in
  let t0 = now () in
  Array.iter (fun (a, b) -> ignore (Topology.delay fresh a b)) pairs;
  kernel "delay_cold_ns" ((now () -. t0) *. 1e9 /. float_of_int n_p);
  kernel "delay_warm_ns"
    (ns_per_op (fun () ->
         Array.iter (fun (a, b) -> ignore (Topology.delay fresh a b)) pairs;
         n_p));
  kernel "src_endpoints"
    (float_of_int (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 src_seen));
  (* faults: the workload's own link model over the sampled pairs *)
  let model = w.verdict_model () in
  let vrng = Rng.create (seed + 4000) in
  let i = ref 0 in
  kernel "verdict_ns"
    (ns_per_op (fun () ->
         Array.iter
           (fun (a, b) ->
             incr i;
             ignore (Netfault.decide model ~rng:vrng ~time:(float_of_int !i) ~src:a ~dst:b))
           pairs;
         n_p));
  (* simkit: schedule / cancel / pop at the run's queue high-water mark
     and cancel ratio *)
  let cancel_ratio =
    float_of_int es.Simkit.Engine.cancelled /. float_of_int (max 1 es.Simkit.Engine.scheduled)
  in
  let e = Simkit.Engine.create () in
  let erng = Rng.create (seed + 5000) in
  let delay () = Rng.float erng 60.0 in
  for _ = 1 to es.Simkit.Engine.heap_hwm do
    ignore (Simkit.Engine.schedule e ~delay:(delay ()) ignore)
  done;
  kernel "schedule_pop_ns"
    (ns_per_op (fun () ->
         for _ = 1 to 1024 do
           ignore (Simkit.Engine.schedule e ~delay:(delay ()) ignore);
           if Rng.float erng 1.0 < cancel_ratio then
             Simkit.Engine.cancel e (Simkit.Engine.schedule e ~delay:(delay ()) ignore);
           ignore (Simkit.Engine.step e)
         done;
         1024));
  (* overlay_metrics: replay the run's record_send / lookup_sent /
     lookup_delivered feed into a fresh collector *)
  kernel "record_ns"
    (ns_per_op (fun () ->
         let c = Collector.create ~window:s.config.Sim.window () in
         for k = 0 to feed.Feed.n - 1 do
           let time = feed.Feed.time.(k) and arg = feed.Feed.arg.(k) in
           match Bytes.unsafe_get feed.Feed.kind k with
           | '\000' -> Collector.record_send c ~time classes.(arg)
           | '\001' -> Collector.lookup_sent c ~seq:arg ~time
           | _ ->
               Collector.lookup_delivered c ~seq:arg ~time ~correct:true ~direct_delay:0.05
                 ~hops:feed.Feed.hops.(k)
         done;
         feed.Feed.n));
  J.Obj
    [
      ("mode", J.String "replay");
      ("seed", J.Int seed);
      ("kernels", obj_f (List.rev !kernels));
      ("outcome", outcome);
      ("counters", registry_json live);
    ]

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and mode = ref "time" and out = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--mode", Arg.Set_string mode, "time|trace|replay");
      ("--out", Arg.Set_string out, "DIR where the run manifest goes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --mode time|trace|replay --out DIR";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  let manifest =
    Some (Filename.concat !out (Printf.sprintf "%s-seed%d-%s.run.json" w.name !seed !mode))
  in
  let j =
    match !mode with
    | "time" -> time_mode w ~seed:!seed ~manifest
    | "trace" -> trace_mode w ~seed:!seed ~manifest
    | "replay" -> replay_mode w ~seed:!seed ~manifest
    | m ->
        prerr_endline ("unknown mode " ^ m);
        exit 2
  in
  print_endline (J.to_string j)
