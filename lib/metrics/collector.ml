module M = Mspastry.Message
module Series = Repro_util.Series
module Hist = Repro_obs.Hist

(* Per-lookup records, indexed by sequence number: six columns of
   unboxed values in chunks of [chunk_size] seqs, so a lookup costs six
   words and no pointer, and growing copies only the chunk index. [sent]
   is [nan] for a seq never sent; a lookup's deliveries are
   [correct + incorrect], and its [first_*] values are read only once it
   has one. *)
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits

type chunk = {
  sent : Float.Array.t;
  first_delay : Float.Array.t;
  first_rdp : Float.Array.t;
  first_hops : int array;
  correct : int array;
  incorrect : int array;
}

(* every chunk index no lookup has been sent in points here *)
let no_chunk =
  {
    sent = Float.Array.create 0;
    first_delay = Float.Array.create 0;
    first_rdp = Float.Array.create 0;
    first_hops = [||];
    correct = [||];
    incorrect = [||];
  }

let new_chunk () =
  {
    sent = Float.Array.make chunk_size nan;
    first_delay = Float.Array.make chunk_size nan;
    first_rdp = Float.Array.make chunk_size nan;
    first_hops = Array.make chunk_size 0;
    correct = Array.make chunk_size 0;
    incorrect = Array.make chunk_size 0;
  }

type t = {
  window : float;
  sends : Series.t array; (* message counts, by Message.class_index *)
  pop_integral : Series.t; (* node-seconds per window *)
  mutable cur_pop : int;
  mutable pop_last_t : float;
  mutable last_event : float;
  mutable chunks : chunk array;
  rdp_w : Series.t;
  mutable joined : (float * float) list; (* (completion time, latency), newest first *)
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
    sends = Array.of_list (List.map (fun _ -> Series.create ~window) M.all_classes);
    pop_integral = Series.create ~window;
    cur_pop = 0;
    pop_last_t = 0.0;
    last_event = 0.0;
    chunks = [||];
    rdp_w = Series.create ~window;
    joined = [];
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

let window t = t.window

let record_send t ~time cls =
  if time > t.last_event then t.last_event <- time;
  Series.count t.sends.(M.class_index cls) ~time

(* credit node-seconds from the last population change up to [time]
   into [series] *)
let credit t series ~time =
  Series.integrate series ~from:t.pop_last_t ~until:time (float_of_int t.cur_pop)

let credit_population t ~time =
  credit t t.pop_integral ~time;
  t.pop_last_t <- Float.max t.pop_last_t time

let set_population t ~time n =
  credit_population t ~time;
  t.cur_pop <- n

let flush t ~time = credit_population t ~time

let lookup_sent t ~seq ~time =
  (* negated, so that nan fails too: [nan] marks a seq never sent *)
  if seq < 0 || not (time >= 0.0 && time < infinity) then
    invalid_arg "Collector.lookup_sent";
  if time > t.last_event then t.last_event <- time;
  let ci = seq lsr chunk_bits in
  let len = Array.length t.chunks in
  if ci >= len then begin
    let grown = Array.make (max (2 * len) (ci + 1)) no_chunk in
    Array.blit t.chunks 0 grown 0 len;
    t.chunks <- grown
  end;
  if t.chunks.(ci) == no_chunk then t.chunks.(ci) <- new_chunk ();
  (* a seq sent again starts a fresh record: its [first_*] values are
     rewritten by its next first delivery *)
  let c = t.chunks.(ci) and i = seq land (chunk_size - 1) in
  Float.Array.set c.sent i time;
  c.correct.(i) <- 0;
  c.incorrect.(i) <- 0

let lookup_delivered t ~seq ~time ~correct ~direct_delay ~hops =
  if seq < 0 then invalid_arg "Collector.lookup_delivered";
  if time > t.last_event then t.last_event <- time;
  let ci = seq lsr chunk_bits and i = seq land (chunk_size - 1) in
  (* a seq never sent (beyond the index, in an unused chunk, or a gap
     inside one) is not judged *)
  if ci < Array.length t.chunks && t.chunks.(ci) != no_chunk then begin
    let c = t.chunks.(ci) in
    let sent = Float.Array.get c.sent i in
    if not (Float.is_nan sent) then begin
      let first = c.correct.(i) + c.incorrect.(i) = 0 in
      if correct then c.correct.(i) <- c.correct.(i) + 1
      else c.incorrect.(i) <- c.incorrect.(i) + 1;
      if first then begin
        let delay = time -. sent in
        Float.Array.set c.first_delay i delay;
        c.first_hops.(i) <- hops;
        Hist.add t.delay_hist delay;
        Hist.add t.hops_hist (float_of_int hops);
        let rdp = if direct_delay > 0.0 then delay /. direct_delay else 1.0 in
        Float.Array.set c.first_rdp i rdp;
        Series.add t.rdp_w ~time rdp
      end
    end
  end

(* [f c i] for every sent lookup, in seq order *)
let iter_sent t f =
  Array.iter
    (fun c ->
      for i = 0 to Float.Array.length c.sent - 1 do
        if not (Float.is_nan (Float.Array.get c.sent i)) then f c i
      done)
    t.chunks

let join_recorded t ~time ~latency = t.joined <- (time, latency) :: t.joined

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

(* windowed counts belong to a range when their window's midpoint does *)
let in_slice t ~since ~until w =
  let mid = (float_of_int w +. 0.5) *. t.window in
  mid >= since && mid <= until

(* [f w] summed over windows [0 .. n - 1] in the range, in window order *)
let sum_slice t ~since ~until n f =
  let acc = ref 0.0 in
  for w = 0 to n - 1 do
    if in_slice t ~since ~until w then acc := !acc +. f w
  done;
  !acc

let summary ?(since = 0.0) ?(until = infinity) ?(drain = 30.0) t =
  (* credit population up to the summary horizon in a scratch series, so
     that a query leaves later ones unchanged; with no explicit horizon,
     use the last recorded send so numerator and denominator of the
     per-node rates cover the same span *)
  let horizon = if Float.is_finite until then until else Float.max t.pop_last_t t.last_event in
  let tail = Series.create ~window:t.window in
  credit t tail ~time:horizon;
  let node_seconds =
    sum_slice t ~since ~until
      (max (Series.length t.pop_integral) (Series.length tail))
      (fun w -> Series.sum t.pop_integral w +. Series.sum tail w)
  in
  let sent_in cls =
    let s = t.sends.(M.class_index cls) in
    sum_slice t ~since ~until (Series.length s) (Series.sum s)
  in
  let lookup_cutoff = until -. drain in
  let n_sent = ref 0
  and delivered = ref 0
  and lost = ref 0
  and incorrect = ref 0
  and succeeded = ref 0
  and delay_acc = ref 0.0
  and rdp_acc = ref 0.0
  and hops_acc = ref 0
  and first_n = ref 0 in
  iter_sent t (fun c i ->
      let sent = Float.Array.get c.sent i in
      if sent >= since && sent <= until then begin
        let n_correct = c.correct.(i) and n_incorrect = c.incorrect.(i) in
        let was_delivered = n_correct + n_incorrect > 0 in
        incorrect := !incorrect + n_incorrect;
        if sent <= lookup_cutoff then begin
          incr n_sent;
          if was_delivered then incr delivered else incr lost;
          if n_correct > 0 then incr succeeded
        end;
        if was_delivered then begin
          incr first_n;
          delay_acc := !delay_acc +. Float.Array.get c.first_delay i;
          rdp_acc := !rdp_acc +. Float.Array.get c.first_rdp i;
          hops_acc := !hops_acc + c.first_hops.(i)
        end
      end);
  let fdiv a b = if b = 0 then 0.0 else a /. float_of_int b in
  let controls = List.filter M.is_control M.all_classes in
  let control_by_class =
    List.map
      (fun c -> (c, if node_seconds > 0.0 then sent_in c /. node_seconds else 0.0))
      controls
  in
  let control_msgs = List.fold_left (fun acc c -> acc +. sent_in c) 0.0 controls in
  let lookup_msgs = sent_in M.C_lookup in
  let span = Float.min until (Float.max t.pop_last_t horizon) -. since in
  let in_span time = time >= since && time <= until in
  let joins = List.filter (fun (time, _) -> in_span time) t.joined in
  let n_joins = List.length joins in
  let susp = List.filter (fun (time, _) -> in_span time) t.suspicions in
  let n_susp = List.length susp in
  let n_false = List.length (List.filter snd susp) in
  let dets = List.filter (fun (time, _) -> in_span time) t.detections in
  let n_det = List.length dets in
  let det_lat = List.fold_left (fun acc (_, l) -> acc +. l) 0.0 dets in
  {
    lookups_sent = !n_sent;
    lookups_delivered = !delivered;
    lookups_lost = !lost;
    incorrect_deliveries = !incorrect;
    loss_rate = fdiv (float_of_int !lost) !n_sent;
    incorrect_rate = fdiv (float_of_int !incorrect) !n_sent;
    rdp_mean = fdiv !rdp_acc !first_n;
    delay_mean = fdiv !delay_acc !first_n;
    hops_mean = fdiv (float_of_int !hops_acc) !first_n;
    control_msgs;
    control_per_node_per_s = (if node_seconds > 0.0 then control_msgs /. node_seconds else 0.0);
    control_by_class;
    lookup_msgs;
    mean_population = (if span > 0.0 then node_seconds /. span else 0.0);
    joins = n_joins;
    join_latency_mean =
      fdiv (List.fold_left (fun acc (_, l) -> acc +. l) 0.0 joins) n_joins;
    success_rate = fdiv (float_of_int !succeeded) !n_sent;
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

let population_at t w = Series.sum t.pop_integral w /. t.window

(* the messages of [sources] per node-second, in window order, for each
   window where one of them has a sample and the population was
   positive *)
let per_node t sources =
  let pop = t.pop_integral in
  let acc = ref [] in
  for w = Series.length pop - 1 downto 0 do
    let ns = Series.sum pop w in
    if ns > 0.0 && List.exists (fun s -> Series.samples s w > 0) sources then
      acc :=
        (Series.mid pop w, List.fold_left (fun acc s -> acc +. Series.sum s w) 0.0 sources /. ns)
        :: !acc
  done;
  Array.of_list !acc

let control_series t =
  per_node t
    (List.filter_map
       (fun c -> if M.is_control c then Some t.sends.(M.class_index c) else None)
       M.all_classes)

let control_series_by_class t cls = per_node t [ t.sends.(M.class_index cls) ]

let join_latencies t = Array.of_list (List.map snd t.joined)

let hop_hist t = t.hops_hist

(* A range that starts at or before 0 and has no end is the whole run:
   answer it with the histogram fed on the hot path, whose sum adds the
   samples in arrival order as manifests print it. *)
let whole_run since until = since <= 0.0 && until = infinity

let lookup_delay_hist ?(since = 0.0) ?(until = infinity) t =
  if whole_run since until then t.delay_hist
  else begin
    let h = Hist.create () in
    iter_sent t (fun c i ->
        let sent = Float.Array.get c.sent i in
        if sent >= since && sent <= until && c.correct.(i) + c.incorrect.(i) > 0 then
          Hist.add h (Float.Array.get c.first_delay i));
    h
  end

let queue_delay_hist ?(since = 0.0) ?(until = infinity) t =
  if whole_run since until then t.q_hist
  else begin
    let acc = ref (Hist.create ()) in
    Array.iteri
      (fun w h ->
        match h with
        | Some h when in_slice t ~since ~until w -> acc := Hist.merge !acc h
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

(* per window, indexed by window number: every lookup was sent no later
   than [last_event] *)
let sent_windows t =
  let ws =
    Array.init
      (int_of_float (t.last_event /. t.window) + 1)
      (fun _ -> { w_sent = 0; w_lost = 0; w_incorrect = 0; w_correct = 0 })
  in
  iter_sent t (fun c i ->
      let w = ws.(int_of_float (Float.Array.get c.sent i /. t.window)) in
      w.w_sent <- w.w_sent + 1;
      if c.correct.(i) + c.incorrect.(i) = 0 then w.w_lost <- w.w_lost + 1;
      if c.incorrect.(i) > 0 then w.w_incorrect <- w.w_incorrect + 1;
      if c.correct.(i) > 0 then w.w_correct <- w.w_correct + 1);
  ws

let window_rates ws widx =
  if widx < 0 || widx >= Array.length ws || ws.(widx).w_sent = 0 then None
  else
    let w = ws.(widx) in
    let n = float_of_int w.w_sent in
    Some (float_of_int w.w_lost /. n, float_of_int w.w_incorrect /. n)

(* goodput is attributed to the window a lookup was *sent* in, so a
   window's offered and served rates describe the same demand *)
let offered_goodput_series t =
  sent_windows t |> Array.to_list
  |> List.mapi (fun widx w -> (widx, w))
  |> List.filter_map (fun (widx, w) ->
         if w.w_sent = 0 then None
         else
           Some
             ( (float_of_int widx +. 0.5) *. t.window,
               float_of_int w.w_sent /. t.window,
               float_of_int w.w_correct /. t.window ))
  |> Array.of_list

let collapse_threshold = 0.5

let collapse_windows t =
  offered_goodput_series t |> Array.to_list
  |> List.filter_map (fun (mid, offered, goodput) ->
         if offered > 0.0 && goodput /. offered < collapse_threshold then
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
  let ws = sent_windows t in
  (* last window whose lookups have all had [drain] seconds to finish *)
  let last_judgeable = int_of_float ((horizon -. drain) /. t.window) - 1 in
  List.rev_map
    (fun (start, label) ->
      let wf = int_of_float (start /. t.window) in
      let baseline_loss, baseline_incorrect =
        match window_rates ws (wf - 1) with Some (l, i) -> (l, i) | None -> (0.0, 0.0)
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
          let rates = window_rates ws w in
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
