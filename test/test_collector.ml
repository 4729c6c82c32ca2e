module Collector = Overlay_metrics.Collector
module M = Mspastry.Message

let test_lookup_lifecycle () =
  let c = Collector.create ~window:10.0 () in
  Collector.set_population c ~time:0.0 4;
  Collector.lookup_sent c ~seq:1 ~time:1.0;
  Collector.lookup_sent c ~seq:2 ~time:2.0;
  Collector.lookup_delivered c ~seq:1 ~time:1.5 ~correct:true ~direct_delay:0.25 ~hops:2;
  (* seq 2 never delivered *)
  let s = Collector.summary ~until:100.0 ~drain:0.0 c in
  Alcotest.(check int) "sent" 2 s.Collector.lookups_sent;
  Alcotest.(check int) "delivered" 1 s.Collector.lookups_delivered;
  Alcotest.(check int) "lost" 1 s.Collector.lookups_lost;
  Alcotest.(check (float 1e-9)) "loss rate" 0.5 s.Collector.loss_rate;
  Alcotest.(check (float 1e-9)) "rdp" 2.0 s.Collector.rdp_mean;
  Alcotest.(check (float 1e-9)) "delay" 0.5 s.Collector.delay_mean;
  Alcotest.(check (float 1e-9)) "hops" 2.0 s.Collector.hops_mean

let test_incorrect_and_duplicates () =
  let c = Collector.create ~window:10.0 () in
  Collector.lookup_sent c ~seq:1 ~time:0.0;
  Collector.lookup_delivered c ~seq:1 ~time:0.2 ~correct:true ~direct_delay:0.1 ~hops:1;
  (* duplicate delivery at the wrong node *)
  Collector.lookup_delivered c ~seq:1 ~time:0.4 ~correct:false ~direct_delay:0.1 ~hops:3;
  let s = Collector.summary ~until:10.0 ~drain:0.0 c in
  Alcotest.(check int) "one lookup delivered" 1 s.Collector.lookups_delivered;
  Alcotest.(check int) "incorrect counted" 1 s.Collector.incorrect_deliveries;
  (* delay stats use the first delivery only *)
  Alcotest.(check (float 1e-9)) "rdp from first" 2.0 s.Collector.rdp_mean

let test_drain_exclusion () =
  let c = Collector.create ~window:10.0 () in
  Collector.lookup_sent c ~seq:1 ~time:95.0;
  (* in flight at the end: excluded from loss accounting *)
  let s = Collector.summary ~until:100.0 ~drain:30.0 c in
  Alcotest.(check int) "not counted" 0 s.Collector.lookups_sent;
  Alcotest.(check int) "not lost" 0 s.Collector.lookups_lost

let test_control_rates () =
  let c = Collector.create ~window:10.0 () in
  (* 2 nodes for the whole first window *)
  Collector.set_population c ~time:0.0 2;
  (* 10 leaf-set messages in 10s over 2 nodes: 0.5 msg/s/node *)
  for i = 0 to 9 do
    Collector.record_send c ~time:(float_of_int i) M.C_leafset
  done;
  let s = Collector.summary ~until:10.0 c in
  Alcotest.(check (float 1e-6)) "control rate" 0.5 s.Collector.control_per_node_per_s;
  Alcotest.(check (float 1e-6)) "mean population" 2.0 s.Collector.mean_population;
  let by_class = s.Collector.control_by_class in
  Alcotest.(check (float 1e-6)) "leafset class" 0.5 (List.assoc M.C_leafset by_class);
  Alcotest.(check (float 1e-6)) "rt class empty" 0.0 (List.assoc M.C_rt_probe by_class)

let test_summary_leaves_state () =
  (* a query must not change what a later one returns: the population
     credited up to one summary's horizon is not stored *)
  let c = Collector.create ~window:10.0 () in
  Collector.set_population c ~time:0.0 5;
  for i = 0 to 19 do
    Collector.record_send c ~time:(float_of_int i) M.C_leafset
  done;
  let check label =
    let s = Collector.summary ~until:15.0 c in
    Alcotest.(check (float 1e-9)) (label ^ ": mean population") 5.0
      s.Collector.mean_population;
    Alcotest.(check (float 1e-9)) (label ^ ": control rate") (20.0 /. 75.0)
      s.Collector.control_per_node_per_s
  in
  check "first query";
  ignore (Collector.summary ~until:20.0 c);
  check "after a longer query"

let test_lookup_not_control () =
  let c = Collector.create ~window:10.0 () in
  Collector.set_population c ~time:0.0 1;
  Collector.record_send c ~time:1.0 M.C_lookup;
  Collector.record_send c ~time:1.0 M.C_join;
  let s = Collector.summary ~until:10.0 c in
  Alcotest.(check (float 1e-6)) "only join counted" 0.1 s.Collector.control_per_node_per_s;
  Alcotest.(check (float 1e-6)) "lookup msgs tracked" 1.0 s.Collector.lookup_msgs

let test_population_series () =
  let c = Collector.create ~window:10.0 () in
  Collector.set_population c ~time:0.0 4;
  Collector.set_population c ~time:5.0 8;
  Collector.set_population c ~time:20.0 0;
  let pop = Collector.population_series c in
  Alcotest.(check (float 1e-6)) "window 0 mean" 6.0 (snd pop.(0));
  Alcotest.(check (float 1e-6)) "window 1 mean" 8.0 (snd pop.(1))

let test_join_latencies () =
  let c = Collector.create ~window:10.0 () in
  Collector.join_recorded c ~time:1.0 ~latency:2.0;
  Collector.join_recorded c ~time:2.0 ~latency:4.0;
  let s = Collector.summary ~until:10.0 c in
  Alcotest.(check int) "joins" 2 s.Collector.joins;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Collector.join_latency_mean;
  Alcotest.(check int) "raw array" 2 (Array.length (Collector.join_latencies c))

let test_joins_windowed () =
  let c = Collector.create ~window:10.0 () in
  Collector.join_recorded c ~time:5.0 ~latency:2.0;
  Collector.join_recorded c ~time:25.0 ~latency:7.0;
  let s = Collector.summary ~since:10.0 c in
  Alcotest.(check int) "joins completed since 10 s" 1 s.Collector.joins;
  Alcotest.(check (float 1e-9)) "the later join's latency" 7.0
    s.Collector.join_latency_mean;
  Alcotest.(check int) "join_latencies stays whole-run" 2
    (Array.length (Collector.join_latencies c))

let test_since_filter () =
  let c = Collector.create ~window:10.0 () in
  Collector.set_population c ~time:0.0 1;
  Collector.lookup_sent c ~seq:1 ~time:5.0;
  Collector.lookup_sent c ~seq:2 ~time:25.0;
  Collector.lookup_delivered c ~seq:2 ~time:25.5 ~correct:true ~direct_delay:0.5 ~hops:1;
  let s = Collector.summary ~since:20.0 ~until:40.0 ~drain:0.0 c in
  Alcotest.(check int) "only the second lookup" 1 s.Collector.lookups_sent;
  Alcotest.(check int) "no loss" 0 s.Collector.lookups_lost

let test_zero_direct_delay () =
  let c = Collector.create ~window:10.0 () in
  Collector.lookup_sent c ~seq:1 ~time:0.0;
  Collector.lookup_delivered c ~seq:1 ~time:0.1 ~correct:true ~direct_delay:0.0 ~hops:1;
  let s = Collector.summary ~until:10.0 ~drain:0.0 c in
  Alcotest.(check (float 1e-9)) "rdp defaults to 1" 1.0 s.Collector.rdp_mean

let send c seq time = Collector.lookup_sent c ~seq ~time

let deliver c seq time =
  Collector.lookup_delivered c ~seq ~time ~correct:true ~direct_delay:0.1 ~hops:1

let test_fault_episode_repair () =
  let c = Collector.create ~window:10.0 () in
  (* window 0: pristine baseline — 4 lookups, all delivered correctly *)
  for i = 0 to 3 do
    send c i (1.0 +. float_of_int i);
    deliver c i (1.5 +. float_of_int i)
  done;
  Collector.fault_injected c ~time:12.0 ~label:"ep";
  (* window 1 (the fault window): 2 of 4 lost, 1 delivered incorrectly *)
  List.iter (fun (s, t) -> send c s t) [ (10, 12.0); (11, 13.0); (12, 14.0); (13, 15.0) ];
  deliver c 10 12.5;
  Collector.lookup_delivered c ~seq:11 ~time:13.5 ~correct:false ~direct_delay:0.1
    ~hops:3;
  (* window 2: still degraded — 1 of 4 lost *)
  List.iter (fun (s, t) -> send c s t) [ (20, 21.0); (21, 22.0); (22, 23.0); (23, 24.0) ];
  List.iter (fun (s, t) -> deliver c s t) [ (20, 21.5); (21, 22.5); (22, 23.5) ];
  (* window 3: fully recovered *)
  List.iter (fun (s, t) -> send c s t) [ (30, 31.0); (31, 32.0) ];
  List.iter (fun (s, t) -> deliver c s t) [ (30, 31.5); (31, 32.5) ];
  (* window 4: pushes the horizon so window 3 becomes judgeable *)
  send c 40 45.0;
  deliver c 40 45.5;
  match Collector.episodes ~drain:0.0 c with
  | [ ep ] -> (
      Alcotest.(check string) "label" "ep" ep.Collector.ep_label;
      Alcotest.(check (float 1e-9)) "start" 12.0 ep.Collector.ep_start;
      Alcotest.(check (float 1e-9)) "baseline loss" 0.0 ep.Collector.baseline_loss;
      Alcotest.(check (float 1e-9)) "peak loss" 0.5 ep.Collector.peak_loss;
      Alcotest.(check (float 1e-9)) "peak incorrect" 0.25 ep.Collector.peak_incorrect;
      match ep.Collector.time_to_repair with
      (* repaired at the end of window 3: 4 * 10 - 12 *)
      | Some ttr -> Alcotest.(check (float 1e-9)) "time to repair" 28.0 ttr
      | None -> Alcotest.fail "expected repair")
  | eps -> Alcotest.failf "expected one episode, got %d" (List.length eps)

let test_fault_episode_unrepaired () =
  let c = Collector.create ~window:10.0 () in
  for i = 0 to 3 do
    send c i (1.0 +. float_of_int i);
    deliver c i (1.5 +. float_of_int i)
  done;
  Collector.fault_injected c ~time:12.0 ~label:"dead";
  (* every post-fault lookup is lost through the end of the run *)
  List.iter (fun (s, t) -> send c s t) [ (10, 15.0); (20, 25.0); (30, 35.0); (40, 45.0) ];
  Collector.flush c ~time:50.0;
  match Collector.episodes ~drain:0.0 c with
  | [ ep ] ->
      Alcotest.(check (float 1e-9)) "peak loss" 1.0 ep.Collector.peak_loss;
      Alcotest.(check bool) "never repaired" true
        (ep.Collector.time_to_repair = None)
  | eps -> Alcotest.failf "expected one episode, got %d" (List.length eps)

module Hist = Repro_obs.Hist
module Rng = Repro_util.Rng

let test_rejects_bad_input () =
  let c = Collector.create () in
  Alcotest.check_raises "sent" (Invalid_argument "Collector.lookup_sent") (fun () ->
      Collector.lookup_sent c ~seq:(-1) ~time:0.0);
  (* a nan send time would read as "never sent" *)
  List.iter
    (fun time ->
      Alcotest.check_raises (Printf.sprintf "time %g" time)
        (Invalid_argument "Collector.lookup_sent") (fun () ->
          Collector.lookup_sent c ~seq:0 ~time))
    [ nan; infinity; -1.0 ];
  Alcotest.check_raises "delivered" (Invalid_argument "Collector.lookup_delivered")
    (fun () ->
      Collector.lookup_delivered c ~seq:(-1) ~time:0.0 ~correct:true ~direct_delay:0.1
        ~hops:1)

(* minor words per call of [f] in a warmed loop *)
let words_per_call f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    f ()
  done;
  (Gc.minor_words () -. w0) /. 1000.0

(* the per-sample feeds box no float and allocate no record *)
let test_feeds_allocate_nothing () =
  let check name f = Alcotest.(check (float 0.01)) name 0.0 (words_per_call f) in
  let h = Hist.create () in
  check "Hist.add" (fun () -> Hist.add h 0.25);
  let s = Repro_util.Series.create ~window:10.0 in
  check "Series.add, same window" (fun () -> Repro_util.Series.add s ~time:5.0 1.5);
  let c = Collector.create () in
  Collector.lookup_sent c ~seq:0 ~time:1.0;
  let seq = ref 0 in
  check "Collector.lookup_sent, fresh seq in an allocated chunk" (fun () ->
      incr seq;
      Collector.lookup_sent c ~seq:!seq ~time:2.0)

let test_hist_vs_exact_parity () =
  (* Record a realistic spread of queueing delays and lookup stats, then
     check the bounded histograms agree with exact percentiles over the
     fed samples to within the documented relative-error bound. *)
  let c = Collector.create ~window:10.0 () in
  let rng = Rng.create 11 in
  let exact = Array.make 1000 0.0 in
  for i = 0 to 999 do
    let d = 0.001 *. Float.exp (Rng.float rng 6.0) in
    exact.(i) <- d;
    Collector.queue_delay c ~time:(float_of_int i *. 0.1) d;
    Collector.lookup_sent c ~seq:i ~time:(float_of_int i *. 0.1);
    Collector.lookup_delivered c ~seq:i
      ~time:((float_of_int i *. 0.1) +. d)
      ~correct:true ~direct_delay:(d /. 2.0)
      ~hops:(1 + Rng.int rng 6)
  done;
  let h = Collector.queue_delay_hist c in
  Alcotest.(check int) "hist sees every sample" (Array.length exact) (Hist.count h);
  let alpha = Hist.alpha h in
  List.iter
    (fun p ->
      let e = Repro_util.Stats.percentile exact p in
      let est = Hist.percentile h p in
      let err = Float.abs (est -. e) /. e in
      if err > (2.0 *. alpha) +. 1e-9 then
        Alcotest.failf "p%.0f: hist %.6g vs exact %.6g (err %.4f)" p est e err)
    [ 50.0; 90.0; 99.0 ];
  Alcotest.(check int) "lookup delays all recorded" 1000
    (Hist.count (Collector.lookup_delay_hist c));
  Alcotest.(check int) "hops all recorded" 1000 (Hist.count (Collector.hop_hist c))

(* Time slices against list models. Queue samples fall in six 10 s
   windows at times on a 0.1 s grid (so some sit exactly on a window
   edge), window [w]'s delays log-uniform over a span that overlaps its
   neighbours', in random window order. Lookups are sent on the same
   grid, some never delivered, some delivered twice and some after the
   slice ends. Bounds are window edges, some past the last window. *)
let qcheck_slices =
  QCheck.Test.make ~name:"time slices match list models" ~count:40
    QCheck.(triple (int_bound 1_000_000) (int_bound 8) (int_bound 8))
    (fun (seed, a, b) ->
      let window = 10.0 in
      let since = window *. float_of_int (min a b)
      and until = window *. float_of_int (max a b) in
      let rng = Rng.create seed in
      let c = Collector.create ~window () in
      let queued = ref [] in
      for _ = 1 to 6000 + Rng.int rng 3000 do
        let w = Rng.int rng 6 in
        let time = (float_of_int w *. window) +. (float_of_int (Rng.int rng 100) /. 10.0) in
        let d = 0.01 *. Float.exp ((0.3 *. float_of_int w) +. Rng.float rng 0.6) in
        Collector.queue_delay c ~time d;
        queued := (time, d) :: !queued
      done;
      let lookups = ref [] in
      for seq = 0 to 199 do
        let sent = float_of_int (Rng.int rng 600) /. 10.0 in
        Collector.lookup_sent c ~seq ~time:sent;
        let first =
          if Rng.int rng 5 = 0 then None
          else begin
            let time = sent +. 0.05 +. Rng.float rng 25.0 in
            Collector.lookup_delivered c ~seq ~time ~correct:true ~direct_delay:0.01
              ~hops:2;
            if Rng.int rng 4 = 0 then
              Collector.lookup_delivered c ~seq ~time:(time +. 1.0) ~correct:false
                ~direct_delay:0.01 ~hops:3;
            Some (time -. sent)
          end
        in
        lookups := (sent, first) :: !lookups
      done;
      let hist_of xs =
        let h = Hist.create () in
        List.iter (Hist.add h) xs;
        h
      in
      let same_quantiles h m =
        Hist.count h = Hist.count m
        && List.for_all
             (fun q -> Float.equal (Hist.quantile h q) (Hist.quantile m q))
             [ 0.0; 0.5; 0.9; 0.99; 1.0 ]
      in
      (* a window-aligned slice holds exactly the samples in [since, until) *)
      let in_slice =
        List.filter_map
          (fun (time, d) -> if time >= since && time < until then Some d else None)
          !queued
        |> Array.of_list
      in
      let qs = Collector.queue_delay_hist ~since ~until c in
      let queue_ok =
        Hist.count qs = Array.length in_slice
        && (Array.length in_slice = 0
           || List.for_all
                (fun p ->
                  let e = Repro_util.Stats.percentile in_slice p in
                  Float.abs (Hist.percentile qs p -. e) <= 2.0 *. Hist.alpha qs *. e)
                [ 50.0; 90.0; 99.0 ])
      in
      let delays_sent_in =
        List.filter_map
          (fun (sent, first) -> if sent >= since && sent <= until then first else None)
          !lookups
      in
      let lookup_ok =
        same_quantiles (Collector.lookup_delay_hist ~since ~until c) (hist_of delays_sent_in)
      in
      (* no range: the histograms fed on the hot path, sums in feed order *)
      let fed_in_order h xs =
        Hist.count h = List.length xs
        && Hist.sum h = List.fold_left ( +. ) 0.0 (List.rev xs)
      in
      let whole_ok =
        fed_in_order (Collector.queue_delay_hist c) (List.map snd !queued)
        && fed_in_order (Collector.lookup_delay_hist c) (List.filter_map snd !lookups)
      in
      queue_ok && lookup_ok && whole_ok)

(* ---- the per-lookup columns against the records they replaced ---- *)

(* the record kept per lookup in a [Hashtbl] before the columns *)
type model_rec = {
  m_sent : float;
  mutable m_deliveries : int;
  mutable m_first_delay : float;
  mutable m_first_hops : int;
  mutable m_first_rdp : float;
  mutable m_incorrect : int;
  mutable m_correct : int;
}

type model = {
  recs : (int, model_rec) Hashtbl.t;
  fed : Hist.t; (* first-delivery delays in delivery order *)
  mutable faults : (float * string) list; (* newest first *)
  mutable last : float; (* the latest event time *)
}

let model_sent m ~seq ~time =
  m.last <- Float.max m.last time;
  Hashtbl.replace m.recs seq
    {
      m_sent = time;
      m_deliveries = 0;
      m_first_delay = nan;
      m_first_hops = 0;
      m_first_rdp = nan;
      m_incorrect = 0;
      m_correct = 0;
    }

let model_delivered m ~seq ~time ~correct ~direct_delay ~hops =
  m.last <- Float.max m.last time;
  match Hashtbl.find_opt m.recs seq with
  | None -> ()
  | Some r ->
      r.m_deliveries <- r.m_deliveries + 1;
      if correct then r.m_correct <- r.m_correct + 1
      else r.m_incorrect <- r.m_incorrect + 1;
      if r.m_deliveries = 1 then begin
        r.m_first_delay <- time -. r.m_sent;
        r.m_first_hops <- hops;
        r.m_first_rdp <-
          (if direct_delay > 0.0 then r.m_first_delay /. direct_delay else 1.0);
        Hist.add m.fed r.m_first_delay
      end

(* the records in seq order *)
let model_records m =
  Hashtbl.fold (fun seq r acc -> (seq, r) :: acc) m.recs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let fdiv a b = if b = 0 then 0.0 else a /. float_of_int b

(* the lookup fields of [Collector.summary], summing in seq order *)
let model_summary m ~since ~until ~drain =
  let cutoff = until -. drain in
  let in_range =
    List.filter (fun r -> r.m_sent >= since && r.m_sent <= until) (model_records m)
  in
  let judged = List.filter (fun r -> r.m_sent <= cutoff) in_range in
  let firsts = List.filter (fun r -> r.m_deliveries > 0) in_range in
  let count p l = List.length (List.filter p l) in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 firsts in
  let sent = List.length judged and lost = count (fun r -> r.m_deliveries = 0) judged in
  let incorrect = List.fold_left (fun acc r -> acc + r.m_incorrect) 0 in_range in
  let n = List.length firsts in
  ( (sent, sent - lost, lost, incorrect),
    [
      fdiv (float_of_int lost) sent;
      fdiv (float_of_int incorrect) sent;
      fdiv (sum (fun r -> r.m_first_rdp)) n;
      fdiv (sum (fun r -> r.m_first_delay)) n;
      fdiv (float_of_int (List.fold_left (fun acc r -> acc + r.m_first_hops) 0 firsts)) n;
      fdiv (float_of_int (count (fun r -> r.m_correct > 0) judged)) sent;
    ] )

let summary_fields s =
  let open Collector in
  ( (s.lookups_sent, s.lookups_delivered, s.lookups_lost, s.incorrect_deliveries),
    [ s.loss_rate; s.incorrect_rate; s.rdp_mean; s.delay_mean; s.hops_mean; s.success_rate ]
  )

(* per window: (sent, lost, incorrect, correct) *)
let model_windows m ~window =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ r ->
      let w = int_of_float (r.m_sent /. window) in
      let s, l, i, c = Option.value (Hashtbl.find_opt tbl w) ~default:(0, 0, 0, 0) in
      Hashtbl.replace tbl w
        ( s + 1,
          (l + if r.m_deliveries = 0 then 1 else 0),
          (i + if r.m_incorrect > 0 then 1 else 0),
          c + if r.m_correct > 0 then 1 else 0 ))
    m.recs;
  tbl

let model_goodput m ~window =
  Hashtbl.fold (fun w v acc -> (w, v) :: acc) (model_windows m ~window) []
  |> List.sort compare
  |> List.map (fun (w, (s, _, _, c)) ->
         ( (float_of_int w +. 0.5) *. window,
           float_of_int s /. window,
           float_of_int c /. window ))
  |> Array.of_list

let model_episodes m ~window ~drain ~tolerance =
  let tbl = model_windows m ~window in
  let rates w =
    match Hashtbl.find_opt tbl w with
    | Some (s, l, i, _) when s > 0 ->
        Some (float_of_int l /. float_of_int s, float_of_int i /. float_of_int s)
    | Some _ | None -> None
  in
  let last_judgeable = int_of_float ((m.last -. drain) /. window) - 1 in
  List.rev_map
    (fun (start, label) ->
      let wf = int_of_float (start /. window) in
      let bl, bi = Option.value (rates (wf - 1)) ~default:(0.0, 0.0) in
      let rec scan w pl pi =
        if w > last_judgeable then (pl, pi, None)
        else
          let r = rates w in
          let pl, pi =
            match r with Some (l, i) -> (Float.max pl l, Float.max pi i) | None -> (pl, pi)
          in
          match r with
          | Some (l, i) when w > wf && l <= bl +. tolerance && i <= bi +. tolerance ->
              (pl, pi, Some ((float_of_int (w + 1) *. window) -. start))
          | Some _ | None -> scan (w + 1) pl pi
      in
      let peak_loss, peak_incorrect, time_to_repair = scan wf 0.0 0.0 in
      {
        Collector.ep_label = label;
        ep_start = start;
        baseline_loss = bl;
        baseline_incorrect = bi;
        peak_loss;
        peak_incorrect;
        time_to_repair;
      })
    m.faults

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_hist h m =
  Hist.count h = Hist.count m
  && same_float (Hist.sum h) (Hist.sum m)
  && List.for_all
       (fun q -> same_float (Hist.quantile h q) (Hist.quantile m q))
       [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

(* Random sends and deliveries on a monotonic clock. Sends draw seqs
   from small numbers, both sides of the first two chunk boundaries and
   past a run of unused chunks, and resend earlier seqs; deliveries go
   mostly to sent seqs (so some are duplicates) and otherwise to seqs
   never sent: gaps inside a chunk, past the last chunk, and Scribe's
   range. Every summary float is compared bit for bit with the model's
   seq-order sum. *)
let qcheck_columns_model =
  QCheck.Test.make ~name:"lookup columns match a model of the old records" ~count:150
    QCheck.int (fun seed ->
      let rng = Rng.create seed in
      let window = 10.0 in
      let c = Collector.create ~window () in
      let m = { recs = Hashtbl.create 64; fed = Hist.create (); faults = []; last = 0.0 } in
      let clock = ref 0.0 and sent = ref [||] in
      let fresh_seq () =
        match Rng.int rng 5 with
        | 0 -> Rng.int rng 16
        | 1 -> 4088 + Rng.int rng 16
        | 2 -> 8188 + Rng.int rng 8
        | 3 -> 20_480 + Rng.int rng 4
        | _ -> Rng.int rng 64
      in
      for _ = 1 to 200 + Rng.int rng 600 do
        clock := !clock +. Rng.float rng 2.0;
        let time = !clock in
        match Rng.int rng 20 with
        | 0 ->
            let label = Printf.sprintf "f%.0f" time in
            Collector.fault_injected c ~time ~label;
            m.faults <- (time, label) :: m.faults;
            m.last <- Float.max m.last time
        | k when k < 9 || Array.length !sent = 0 ->
            let seq =
              if Array.length !sent > 0 && Rng.int rng 5 = 0 then Rng.pick rng !sent
              else fresh_seq ()
            in
            Collector.lookup_sent c ~seq ~time;
            model_sent m ~seq ~time;
            sent := Array.append !sent [| seq |]
        | k ->
            let seq =
              if k < 17 then Rng.pick rng !sent
              else
                match Rng.int rng 3 with
                | 0 -> fresh_seq ()
                | 1 -> 40_000 + Rng.int rng 100
                | _ -> 1_000_000_000 + Rng.int rng 100
            in
            let correct = Rng.int rng 4 > 0
            and direct_delay = if Rng.int rng 8 = 0 then 0.0 else 0.01 +. Rng.float rng 0.2
            and hops = Rng.int rng 8 in
            Collector.lookup_delivered c ~seq ~time ~correct ~direct_delay ~hops;
            model_delivered m ~seq ~time ~correct ~direct_delay ~hops
      done;
      let horizon = !clock in
      let ranges =
        (0.0, infinity, 30.0)
        :: List.init 6 (fun _ ->
               let a = Rng.float rng horizon and b = Rng.float rng horizon in
               (Float.min a b, (if Rng.int rng 4 = 0 then infinity else Float.max a b),
                Rng.float rng 40.0))
      in
      let summaries_ok =
        List.for_all
          (fun (since, until, drain) ->
            let (ints, floats) = summary_fields (Collector.summary ~since ~until ~drain c)
            and (m_ints, m_floats) = model_summary m ~since ~until ~drain in
            ints = m_ints && List.for_all2 same_float floats m_floats)
          ranges
      in
      let slices_ok =
        List.for_all
          (fun (since, until, _) ->
            let model_slice = Hist.create () in
            List.iter
              (fun r ->
                if r.m_sent >= since && r.m_sent <= until && r.m_deliveries > 0 then
                  Hist.add model_slice r.m_first_delay)
              (model_records m);
            let slice = Collector.lookup_delay_hist ~since ~until c in
            if since <= 0.0 && until = infinity then same_hist slice m.fed
            else same_hist slice model_slice)
          ranges
      in
      summaries_ok && slices_ok
      && Collector.offered_goodput_series c = model_goodput m ~window
      && List.for_all
           (fun (drain, tolerance) ->
             Collector.episodes ~drain ~tolerance c
             = model_episodes m ~window ~drain ~tolerance)
           [ (0.0, 0.01); (30.0, 0.01); (5.0, 0.2) ])

let suite =
  [
    ( "collector",
      [
        Alcotest.test_case "lookup lifecycle" `Quick test_lookup_lifecycle;
        Alcotest.test_case "incorrect and duplicates" `Quick test_incorrect_and_duplicates;
        Alcotest.test_case "drain exclusion" `Quick test_drain_exclusion;
        Alcotest.test_case "control rates" `Quick test_control_rates;
        Alcotest.test_case "summary leaves the collector unchanged" `Quick
          test_summary_leaves_state;
        Alcotest.test_case "lookup is not control" `Quick test_lookup_not_control;
        Alcotest.test_case "population series" `Quick test_population_series;
        Alcotest.test_case "join latencies" `Quick test_join_latencies;
        Alcotest.test_case "joins windowed" `Quick test_joins_windowed;
        Alcotest.test_case "since filter" `Quick test_since_filter;
        Alcotest.test_case "zero direct delay" `Quick test_zero_direct_delay;
        Alcotest.test_case "fault episode repair" `Quick test_fault_episode_repair;
        Alcotest.test_case "fault episode unrepaired" `Quick
          test_fault_episode_unrepaired;
        Alcotest.test_case "hist vs exact parity" `Quick test_hist_vs_exact_parity;
        QCheck_alcotest.to_alcotest qcheck_slices;
        Alcotest.test_case "rejects a negative seq or a bad send time" `Quick
          test_rejects_bad_input;
        Alcotest.test_case "feeds allocate nothing" `Quick test_feeds_allocate_nothing;
        QCheck_alcotest.to_alcotest qcheck_columns_model;
      ] );
  ]
