(** Evaluation metrics (§5.2).

    The collector is fed by the harness: every network send (classified
    per {!Mspastry.Message.traffic_class}), population changes, lookup
    lifecycles, and join latencies. It reports
    - {b incorrect delivery rate}: lookups delivered by a non-root node;
    - {b lookup loss rate}: lookups never delivered at all;
    - {b RDP}: overlay delay over direct network delay;
    - {b control traffic}: control messages per second per active node,
      with the Fig 4 per-class breakdown;
    all both as whole-run aggregates and as windowed time series.

    Latency percentiles (lookup delay, hop count, queueing delay) come
    from bounded {!Repro_obs.Hist} histograms only: a quantile [q] of [n]
    samples estimates the order statistic of rank [floor (q * (n - 1))]
    within the histogram's relative error (1%). No raw samples are kept;
    {!lookup_delay_hist} and {!queue_delay_hist} slice by time.

    Each lookup's verdict is kept for the whole run, indexed by its
    sequence number: six unboxed columns (send time, first-delivery
    delay, RDP and hop count, correct and incorrect delivery counts) in
    chunks of 4,096 seqs, so a lookup costs six words and no pointer, and
    growth copies no record. Seqs are meant to be dense from 0, as the
    harness allocates them; a chunk is allocated on the first send into
    it. {!summary}, the {!lookup_delay_hist} slices and the per-window
    rates behind {!episodes} walk the records in seq order, so their float
    sums add in that order. *)

type t

val create : ?window:float -> unit -> t
(** [window] defaults to 600 s (the paper's 10-minute averaging). The
    percentile state is a fixed-size histogram per metric, plus one
    queueing-delay histogram per window that received a sample. *)

val record_send : t -> time:float -> Mspastry.Message.traffic_class -> unit

val set_population : t -> time:float -> int -> unit
(** Report the current number of active nodes whenever it changes. *)

val flush : t -> time:float -> unit
(** Credit population-time up to [time]. Call before reading the series
    of a run whose population did not change near the end — windows with
    no change would otherwise be missing from per-node normalisation. *)

val lookup_sent : t -> seq:int -> time:float -> unit
(** Start judging lookup [seq], sent at [time]. Sending a seq again
    starts its record afresh. Raises [Invalid_argument] if [seq] is
    negative or [time] is negative or not finite. *)

val lookup_delivered :
  t -> seq:int -> time:float -> correct:bool -> direct_delay:float -> hops:int -> unit
(** [direct_delay] is the network delay from the lookup's origin to the
    node that delivered it (RDP denominator). Duplicate deliveries of the
    same sequence number only count once for delay statistics, but an
    incorrect duplicate still counts as an inconsistency. A delivery of a
    seq never sent is ignored (Scribe and PAST deliver seqs from their
    own ranges); a negative [seq] raises [Invalid_argument]. *)

val join_recorded : t -> time:float -> latency:float -> unit
(** A node became active at [time], [latency] seconds after it started
    joining. {!summary} counts the joins completed in its range;
    {!join_latencies} lists them all. *)

val fault_injected : t -> time:float -> label:string -> unit
(** Mark the start of a fault episode (a scheduled mass crash, partition,
    loss-model change, ...). Recovery is judged post-hoc by {!episodes}. *)

val suspicion_recorded : t -> time:float -> target_alive:bool -> unit
(** A node's failure detector quarantined a peer. [target_alive] is the
    harness's ground truth at that instant — [true] makes it a false
    suspicion (the peer was slow or unlucky, not dead). *)

val crash_detected : t -> time:float -> latency:float -> unit
(** First suspicion of a genuinely crashed node, [latency] seconds after
    its crash (detector time-to-detect; recorded once per crash). *)

val progress_suspicion_recorded : t -> time:float -> unit
(** A node's progress check convicted a previous hop of a
    non-progressing forward (Byzantine hardening, DESIGN.md §10). The
    harness wires this to the node's [on_progress_suspect] upcall
    ({!Mspastry.Node.env}). *)

val poison_rejected : t -> time:float -> unit
(** A node's gossip verification unmasked a fabricated entry (the
    advertised peer failed its identifier challenge). Wired to the
    node's [on_poison_reject] upcall ({!Mspastry.Node.env}). *)

val queue_delay : t -> time:float -> float -> unit
(** Feed one queueing-delay sample (seconds a message spent waiting plus
    in service at a congested node). The harness wires this to
    {!Netsim.Net.on_queue}; with the capacity model off it never fires. *)

type summary = {
  lookups_sent : int;
  lookups_delivered : int;  (** at least once *)
  lookups_lost : int;
  incorrect_deliveries : int;
  loss_rate : float;
  incorrect_rate : float;
  rdp_mean : float;
  delay_mean : float;
  hops_mean : float;
  control_msgs : float;  (** control messages in the interval *)
  control_per_node_per_s : float;
  control_by_class : (Mspastry.Message.traffic_class * float) list;
      (** per-class messages per second per node *)
  lookup_msgs : float;
  mean_population : float;
  joins : int;  (** nodes that became active in the interval *)
  join_latency_mean : float;  (** ... and their mean join latency *)
  success_rate : float;
      (** fraction of judged lookups with at least one {e correct}
          delivery — the end-to-end criterion (a lookup can be
          "delivered" yet never reach its true root) *)
  suspicions : int;  (** failure-detector quarantines in the interval *)
  false_suspicions : int;  (** ... whose target was alive (ground truth) *)
  false_suspicion_rate : float;
  crashes_detected : int;
  detect_latency_mean : float;
      (** mean seconds from a true crash to its first suspicion *)
  progress_suspicions : int;
      (** progress-check convictions in the interval (misrouter /
          dropper forwards caught by the routing invariant) *)
  poison_rejections : int;
      (** fabricated gossip entries rejected by identifier challenge *)
}

val summary : ?since:float -> ?until:float -> ?drain:float -> t -> summary
(** Aggregate over [\[since, until\]] (defaults: whole run). Lookups sent
    within [drain] seconds of [until] (default 30 s) are excluded from
    loss accounting — they may still legitimately be in flight. The
    population credited up to [until] is not stored (see {!flush}), so a
    query leaves later queries unchanged. *)

val rdp_series : t -> (float * float) array
(** Windowed mean RDP over time. *)

val control_series : t -> (float * float) array
(** Windowed control messages per second per active node. *)

val control_series_by_class :
  t -> Mspastry.Message.traffic_class -> (float * float) array

val population_series : t -> (float * float) array
val join_latencies : t -> float array

val lookup_delay_hist : ?since:float -> ?until:float -> t -> Repro_obs.Hist.t
(** First-delivery lookup delays (seconds) of the lookups {e sent} in
    [\[since, until\]], including those delivered after [until]. With
    neither bound (or [since <= 0] and no [until]) it is the whole-run
    histogram, fed as each lookup is first delivered; otherwise a fresh
    histogram built from the per-lookup records. *)

val hop_hist : t -> Repro_obs.Hist.t
(** Histogram of first-delivery overlay hop counts. *)

val queue_delay_hist : ?since:float -> ?until:float -> t -> Repro_obs.Hist.t
(** Queueing-delay samples (empty with the capacity model off). With
    neither bound (or [since <= 0] and no [until]) it is the whole-run
    histogram. Otherwise it merges the per-window histograms whose
    midpoint lies in [\[since, until\]] (the rule {!summary} applies to
    windowed counts): a slice covers whole windows, so bounds on window
    edges select exactly the samples recorded in [\[since, until)]. *)

val offered_goodput_series : t -> (float * float * float) array
(** Per window [(mid, offered, goodput)]: lookups {e sent} per second in
    the window vs lookups sent in it that eventually reached their true
    root, per second. Under congestive collapse goodput falls while
    offered load stays up. *)

val collapse_windows : ?threshold:float -> t -> (float * float) list
(** Windows whose goodput fell below [threshold] (default 0.5) of the
    offered load, as [(window start, goodput fraction)] — the collapse
    detector for the overload experiments. Trailing windows carry the
    usual in-flight caveat. *)

(** Recovery report for one fault episode (ordered by injection time in
    {!episodes}). Baselines are the loss / incorrect rates of the full
    window preceding the injection; peaks are the worst windowed rates
    from the injection until repair (or the end of usable data). *)
type episode = {
  ep_label : string;
  ep_start : float;
  baseline_loss : float;
  baseline_incorrect : float;
  peak_loss : float;
  peak_incorrect : float;
  time_to_repair : float option;
      (** time from injection until the end of the first complete
          post-fault window whose loss and incorrect rates are back
          within [tolerance] of the pre-fault baselines; [None] if the
          run ended first *)
}

val episodes : ?drain:float -> ?tolerance:float -> t -> episode list
(** Judge every {!fault_injected} episode. Windows within [drain]
    (default 30 s) of the last recorded event are not judged — their
    lookups may legitimately still be in flight. [tolerance] (default
    0.01 absolute) is the slack over the baseline rates that still counts
    as repaired. *)
