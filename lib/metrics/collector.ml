module M = Mspastry.Message
module Series = Repro_util.Series
module Hist = Repro_obs.Hist

type lookup_rec = {
  sent : float;
  mutable deliveries : int;
  mutable first_delay : float;
  mutable first_hops : int;
  mutable first_rdp : float;
  mutable incorrect : int;
  mutable correct : int;
}

type t = {
  window : float;
  sends : (M.traffic_class * Series.t) list; (* message counts per class *)
  pop_integral : Series.t; (* node-seconds per window *)
  mutable cur_pop : int;
  mutable pop_last_t : float;
  mutable last_event : float;
  lookups : (int, lookup_rec) Hashtbl.t;
  rdp_w : Series.t;
  join_lat : float list ref;
  mutable faults : (float * string) list; (* episode starts, newest first *)
  mutable suspicions : (float * bool) list; (* (time, target was alive) *)
  mutable detections : (float * float) list; (* (time, crash->detect latency) *)
  mutable prog_suspicions : float list; (* progress-check conviction times *)
  mutable poison_rejects : float list; (* gossip-verification rejection times *)
  (* bounded-memory percentile state: one fixed-size log-bucketed
     histogram per latency-like metric, fed on the hot path *)
  delay_hist : Hist.t; (* lookup first-delivery delays, seconds *)
  hops_hist : Hist.t; (* lookup first-delivery hop counts *)
  q_hist : Hist.t; (* queueing delays, seconds *)
  (* the same queueing delays per window, indexed by window number, so a
     time slice merges whole windows without hashing per sample *)
  mutable q_windows : Hist.t option array;
}

let create ?(window = 600.0) () =
  {
    window;
    sends = List.map (fun c -> (c, Series.create ~window)) M.all_classes;
    pop_integral = Series.create ~window;
    cur_pop = 0;
    pop_last_t = 0.0;
    last_event = 0.0;
    lookups = Hashtbl.create 4096;
    rdp_w = Series.create ~window;
    join_lat = ref [];
    faults = [];
    suspicions = [];
    detections = [];
    prog_suspicions = [];
    poison_rejects = [];
    delay_hist = Hist.create ();
    hops_hist = Hist.create ~lo:0.5 ~hi:1024.0 ();
    q_hist = Hist.create ();
    q_windows = [||];
  }

let record_send t ~time cls =
  if time > t.last_event then t.last_event <- time;
  Series.count (List.assq cls t.sends) ~time

(* credit node-seconds from the last population change up to [time]
   into [series] *)
let credit t series ~time =
  let rec go t0 =
    if t0 < time then begin
      let wend = Float.min ((floor (t0 /. t.window) +. 1.0) *. t.window) time in
      Series.add series ~time:t0 (float_of_int t.cur_pop *. (wend -. t0));
      go wend
    end
  in
  go t.pop_last_t

let credit_population t ~time =
  credit t t.pop_integral ~time;
  t.pop_last_t <- Float.max t.pop_last_t time

let set_population t ~time n =
  credit_population t ~time;
  t.cur_pop <- n

let flush t ~time = credit_population t ~time

let lookup_sent t ~seq ~time =
  if time > t.last_event then t.last_event <- time;
  Hashtbl.replace t.lookups seq
    {
      sent = time;
      deliveries = 0;
      first_delay = nan;
      first_hops = 0;
      first_rdp = nan;
      incorrect = 0;
      correct = 0;
    }

let lookup_delivered t ~seq ~time ~correct ~direct_delay ~hops =
  if time > t.last_event then t.last_event <- time;
  match Hashtbl.find_opt t.lookups seq with
  | None -> ()
  | Some r ->
      r.deliveries <- r.deliveries + 1;
      if correct then r.correct <- r.correct + 1
      else r.incorrect <- r.incorrect + 1;
      if r.deliveries = 1 then begin
        let delay = time -. r.sent in
        r.first_delay <- delay;
        r.first_hops <- hops;
        Hist.add t.delay_hist delay;
        Hist.add t.hops_hist (float_of_int hops);
        let rdp = if direct_delay > 0.0 then delay /. direct_delay else 1.0 in
        r.first_rdp <- rdp;
        Series.add t.rdp_w ~time rdp
      end

let join_recorded t ~latency = t.join_lat := latency :: !(t.join_lat)

let fault_injected t ~time ~label =
  if time > t.last_event then t.last_event <- time;
  t.faults <- (time, label) :: t.faults

let suspicion_recorded t ~time ~target_alive =
  if time > t.last_event then t.last_event <- time;
  t.suspicions <- (time, target_alive) :: t.suspicions

let crash_detected t ~time ~latency =
  if time > t.last_event then t.last_event <- time;
  t.detections <- (time, latency) :: t.detections

let progress_suspicion_recorded t ~time =
  if time > t.last_event then t.last_event <- time;
  t.prog_suspicions <- time :: t.prog_suspicions

let poison_rejected t ~time =
  if time > t.last_event then t.last_event <- time;
  t.poison_rejects <- time :: t.poison_rejects

let window_q_hist t w =
  if w >= Array.length t.q_windows then begin
    let grown = Array.make (max 16 (2 * (w + 1))) None in
    Array.blit t.q_windows 0 grown 0 (Array.length t.q_windows);
    t.q_windows <- grown
  end;
  match t.q_windows.(w) with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      t.q_windows.(w) <- Some h;
      h

let queue_delay t ~time delay =
  if time > t.last_event then t.last_event <- time;
  Hist.add t.q_hist delay;
  Hist.add (window_q_hist t (int_of_float (time /. t.window))) delay

type summary = {
  lookups_sent : int;
  lookups_delivered : int;
  lookups_lost : int;
  incorrect_deliveries : int;
  loss_rate : float;
  incorrect_rate : float;
  rdp_mean : float;
  delay_mean : float;
  hops_mean : float;
  control_msgs : float;
  control_per_node_per_s : float;
  control_by_class : (M.traffic_class * float) list;
  lookup_msgs : float;
  mean_population : float;
  joins : int;
  join_latency_mean : float;
  success_rate : float;
  suspicions : int;
  false_suspicions : int;
  false_suspicion_rate : float;
  crashes_detected : int;
  detect_latency_mean : float;
  progress_suspicions : int;
  poison_rejections : int;
}

let in_range since until (time, _) = time >= since && time <= until

let sum_series ~since ~until s =
  Series.sums s |> Array.to_list
  |> List.filter (in_range since until)
  |> List.fold_left (fun acc (_, v) -> acc +. v) 0.0

let summary ?(since = 0.0) ?(until = infinity) ?(drain = 30.0) t =
  (* credit population up to the summary horizon in a copy, so that a
     query leaves later ones unchanged; with no explicit horizon, use the
     last recorded send so numerator and denominator of the per-node
     rates cover the same span *)
  let horizon = if Float.is_finite until then until else Float.max t.pop_last_t t.last_event in
  let pop = Series.copy t.pop_integral in
  credit t pop ~time:horizon;
  let node_seconds = sum_series ~since ~until pop in
  let lookup_cutoff = until -. drain in
  let sent = ref 0
  and delivered = ref 0
  and lost = ref 0
  and incorrect = ref 0
  and succeeded = ref 0
  and delay_acc = ref 0.0
  and rdp_acc = ref 0.0
  and hops_acc = ref 0
  and first_n = ref 0 in
  Hashtbl.iter
    (fun _ r ->
      if r.sent >= since && r.sent <= until then begin
        incorrect := !incorrect + r.incorrect;
        if r.sent <= lookup_cutoff then begin
          incr sent;
          if r.deliveries > 0 then incr delivered else incr lost;
          if r.correct > 0 then incr succeeded
        end;
        if r.deliveries > 0 then begin
          incr first_n;
          delay_acc := !delay_acc +. r.first_delay;
          rdp_acc := !rdp_acc +. r.first_rdp;
          hops_acc := !hops_acc + r.first_hops
        end
      end)
    t.lookups;
  let fdiv a b = if b = 0 then 0.0 else a /. float_of_int b in
  let control_by_class =
    List.filter_map
      (fun (c, s) ->
        if M.is_control c then
          Some (c, if node_seconds > 0.0 then sum_series ~since ~until s /. node_seconds else 0.0)
        else None)
      t.sends
  in
  let control_msgs =
    List.fold_left
      (fun acc (c, s) -> if M.is_control c then acc +. sum_series ~since ~until s else acc)
      0.0 t.sends
  in
  let lookup_msgs = sum_series ~since ~until (List.assq M.C_lookup t.sends) in
  let span = Float.min until (Float.max t.pop_last_t horizon) -. since in
  let joins = List.length !(t.join_lat) in
  let in_span time = time >= since && time <= until in
  let susp = List.filter (fun (time, _) -> in_span time) t.suspicions in
  let n_susp = List.length susp in
  let n_false = List.length (List.filter snd susp) in
  let dets = List.filter (fun (time, _) -> in_span time) t.detections in
  let n_det = List.length dets in
  let det_lat = List.fold_left (fun acc (_, l) -> acc +. l) 0.0 dets in
  {
    lookups_sent = !sent;
    lookups_delivered = !delivered;
    lookups_lost = !lost;
    incorrect_deliveries = !incorrect;
    loss_rate = fdiv (float_of_int !lost) !sent;
    incorrect_rate = fdiv (float_of_int !incorrect) !sent;
    rdp_mean = fdiv !rdp_acc !first_n;
    delay_mean = fdiv !delay_acc !first_n;
    hops_mean = fdiv (float_of_int !hops_acc) !first_n;
    control_msgs;
    control_per_node_per_s = (if node_seconds > 0.0 then control_msgs /. node_seconds else 0.0);
    control_by_class;
    lookup_msgs;
    mean_population = (if span > 0.0 then node_seconds /. span else 0.0);
    joins;
    join_latency_mean =
      (if joins = 0 then 0.0
       else List.fold_left ( +. ) 0.0 !(t.join_lat) /. float_of_int joins);
    success_rate = fdiv (float_of_int !succeeded) !sent;
    suspicions = n_susp;
    false_suspicions = n_false;
    false_suspicion_rate = fdiv (float_of_int n_false) n_susp;
    crashes_detected = n_det;
    detect_latency_mean = fdiv det_lat n_det;
    progress_suspicions = List.length (List.filter in_span t.prog_suspicions);
    poison_rejections = List.length (List.filter in_span t.poison_rejects);
  }

let rdp_series t = Series.means t.rdp_w

let population_series t =
  Series.sums t.pop_integral |> Array.map (fun (mid, v) -> (mid, v /. t.window))

let control_series t =
  let pop = Series.sums t.pop_integral in
  let pop_tbl = Hashtbl.create 64 in
  Array.iter (fun (mid, v) -> Hashtbl.replace pop_tbl mid v) pop;
  let totals = Hashtbl.create 64 in
  List.iter
    (fun (c, s) ->
      if M.is_control c then
        Array.iter
          (fun (mid, v) ->
            Hashtbl.replace totals mid
              (v +. (try Hashtbl.find totals mid with Not_found -> 0.0)))
          (Series.sums s))
    t.sends;
  Hashtbl.fold (fun mid v acc -> (mid, v) :: acc) totals []
  |> List.sort compare
  |> List.filter_map (fun (mid, v) ->
         match Hashtbl.find_opt pop_tbl mid with
         | Some ns when ns > 0.0 -> Some (mid, v /. ns)
         | Some _ | None -> None)
  |> Array.of_list

let control_series_by_class t cls =
  let pop_tbl = Hashtbl.create 64 in
  Array.iter (fun (mid, v) -> Hashtbl.replace pop_tbl mid v) (Series.sums t.pop_integral);
  Series.sums (List.assq cls t.sends)
  |> Array.to_list
  |> List.filter_map (fun (mid, v) ->
         match Hashtbl.find_opt pop_tbl mid with
         | Some ns when ns > 0.0 -> Some (mid, v /. ns)
         | Some _ | None -> None)
  |> Array.of_list

let join_latencies t = Array.of_list !(t.join_lat)

let hop_hist t = t.hops_hist

(* A range that starts at or before 0 and has no end is the whole run:
   answer it with the histogram fed on the hot path, whose sum adds the
   samples in arrival order as manifests print it. *)
let whole_run since until = since <= 0.0 && until = infinity

let lookup_delay_hist ?(since = 0.0) ?(until = infinity) t =
  if whole_run since until then t.delay_hist
  else begin
    let h = Hist.create () in
    Hashtbl.iter
      (fun _ r ->
        if r.sent >= since && r.sent <= until && r.deliveries > 0 then
          Hist.add h r.first_delay)
      t.lookups;
    h
  end

let queue_delay_hist ?(since = 0.0) ?(until = infinity) t =
  if whole_run since until then t.q_hist
  else begin
    let acc = ref (Hist.create ()) in
    Array.iteri
      (fun w h ->
        let mid = (float_of_int w +. 0.5) *. t.window in
        match h with
        | Some h when mid >= since && mid <= until -> acc := Hist.merge !acc h
        | Some _ | None -> ())
      t.q_windows;
    !acc
  end

(* ---- fault episodes and recovery -------------------------------------

   Dependability rates are attributed to the window a lookup was *sent*
   in: a window's loss rate is the fraction of its lookups never
   delivered, its incorrect rate the fraction delivered by a non-root
   node at least once. Both are computable post-hoc from the per-lookup
   records, so no extra hot-path state is needed. *)

type wstats = {
  mutable w_sent : int;
  mutable w_lost : int;
  mutable w_incorrect : int;
  mutable w_correct : int;
}

let sent_windows t =
  let tbl : (int, wstats) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ r ->
      let widx = int_of_float (r.sent /. t.window) in
      let w =
        match Hashtbl.find_opt tbl widx with
        | Some w -> w
        | None ->
            let w = { w_sent = 0; w_lost = 0; w_incorrect = 0; w_correct = 0 } in
            Hashtbl.add tbl widx w;
            w
      in
      w.w_sent <- w.w_sent + 1;
      if r.deliveries = 0 then w.w_lost <- w.w_lost + 1;
      if r.incorrect > 0 then w.w_incorrect <- w.w_incorrect + 1;
      if r.correct > 0 then w.w_correct <- w.w_correct + 1)
    t.lookups;
  tbl

let window_rates tbl widx =
  match Hashtbl.find_opt tbl widx with
  | Some w when w.w_sent > 0 ->
      let n = float_of_int w.w_sent in
      Some (float_of_int w.w_lost /. n, float_of_int w.w_incorrect /. n)
  | Some _ | None -> None

(* goodput is attributed to the window a lookup was *sent* in, so a
   window's offered and served rates describe the same demand *)
let offered_goodput_series t =
  let tbl = sent_windows t in
  Hashtbl.fold (fun widx w acc -> (widx, w) :: acc) tbl []
  |> List.filter (fun (_, w) -> w.w_sent > 0)
  |> List.sort compare
  |> List.map (fun (widx, w) ->
         ( (float_of_int widx +. 0.5) *. t.window,
           float_of_int w.w_sent /. t.window,
           float_of_int w.w_correct /. t.window ))
  |> Array.of_list

let collapse_windows ?(threshold = 0.5) t =
  offered_goodput_series t |> Array.to_list
  |> List.filter_map (fun (mid, offered, goodput) ->
         if offered > 0.0 && goodput /. offered < threshold then
           Some (mid -. (t.window /. 2.0), goodput /. offered)
         else None)

type episode = {
  ep_label : string;
  ep_start : float;
  baseline_loss : float;
  baseline_incorrect : float;
  peak_loss : float;
  peak_incorrect : float;
  time_to_repair : float option;
}

let episodes ?(drain = 30.0) ?(tolerance = 0.01) t =
  let horizon = Float.max t.pop_last_t t.last_event in
  let tbl = sent_windows t in
  (* last window whose lookups have all had [drain] seconds to finish *)
  let last_judgeable = int_of_float ((horizon -. drain) /. t.window) - 1 in
  List.rev_map
    (fun (start, label) ->
      let wf = int_of_float (start /. t.window) in
      let baseline_loss, baseline_incorrect =
        match window_rates tbl (wf - 1) with Some (l, i) -> (l, i) | None -> (0.0, 0.0)
      in
      let repaired = function
        | Some (loss, incorrect) ->
            loss <= baseline_loss +. tolerance
            && incorrect <= baseline_incorrect +. tolerance
        | None -> false
      in
      let rec scan w peak_l peak_i =
        if w > last_judgeable then (peak_l, peak_i, None)
        else
          let rates = window_rates tbl w in
          let peak_l, peak_i =
            match rates with
            | Some (l, i) -> (Float.max peak_l l, Float.max peak_i i)
            | None -> (peak_l, peak_i)
          in
          if w > wf && repaired rates then
            (peak_l, peak_i, Some ((float_of_int (w + 1) *. t.window) -. start))
          else scan (w + 1) peak_l peak_i
      in
      let peak_loss, peak_incorrect, time_to_repair = scan wf 0.0 0.0 in
      {
        ep_label = label;
        ep_start = start;
        baseline_loss;
        baseline_incorrect;
        peak_loss;
        peak_incorrect;
        time_to_repair;
      })
    t.faults

let pp_episode fmt e =
  Format.fprintf fmt
    "@[<h>fault %S at t=%.0fs: baseline loss=%.3g incorrect=%.3g, peak loss=%.3g \
     incorrect=%.3g, time-to-repair=%s@]"
    e.ep_label e.ep_start e.baseline_loss e.baseline_incorrect e.peak_loss
    e.peak_incorrect
    (match e.time_to_repair with
    | Some ttr -> Printf.sprintf "%.0fs" ttr
    | None -> "not repaired in run")

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>lookups: sent=%d delivered=%d lost=%d (loss=%.2e) incorrect=%d (%.2e) \
     success=%.4f@,\
     rdp=%.2f delay=%.1fms hops=%.2f@,\
     control=%.3f msg/s/node (pop=%.0f), joins=%d (mean latency %.1fs)@]"
    s.lookups_sent s.lookups_delivered s.lookups_lost s.loss_rate s.incorrect_deliveries
    s.incorrect_rate s.success_rate s.rdp_mean (s.delay_mean *. 1000.0) s.hops_mean
    s.control_per_node_per_s s.mean_population s.joins s.join_latency_mean;
  if s.suspicions > 0 || s.crashes_detected > 0 then
    Format.fprintf fmt
      "@,@[<h>detector: suspicions=%d false=%d (%.3f), crashes detected=%d \
       (mean %.1fs)@]"
      s.suspicions s.false_suspicions s.false_suspicion_rate s.crashes_detected
      s.detect_latency_mean;
  if s.progress_suspicions > 0 || s.poison_rejections > 0 then
    Format.fprintf fmt
      "@,@[<h>hardening: progress suspicions=%d, poison rejections=%d@]"
      s.progress_suspicions s.poison_rejections
