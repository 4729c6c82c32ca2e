(** MSPastry protocol constants and parameters.

    The paper fixes MSPastry's timers and retry counts; they are the
    constants below, each with the section it comes from (one without a
    section is this implementation's choice). Its evaluation varies only
    [b], [l], the target raw loss rate and the §5.3 techniques, so the
    record {!t} holds only the values an experiment, benchmark or test
    sets, and each field names its setter.

    {!default} is the paper's base configuration (§5.1): [b = 4], [l = 32],
    per-hop acks on, routing-table probing self-tuned to a raw loss rate
    of 5%, heartbeats exploiting the ring structure. *)

(** {1 Constants} *)

val t_ls : float  (** leaf-set heartbeat period Tls: 30 s (§4.1) *)

val t_out : float  (** probe timeout To, the TCP SYN timeout: 3 s (Fig 2) *)

val max_probe_retries : int  (** probe retries before a peer is faulty: 2 (Fig 2) *)

val t_rt_max : float
(** clamp of the self-tuned routing-table probing period Trt, and its
    value before the first tuning tick: 3600 s (§4.1) *)

val tuning_refresh_period : float  (** how often Trt is recomputed: 30 s (§4.1) *)

val rt_maintenance_period : float  (** routing-table gossip period: 20 min (§4.2) *)

val distance_probe_count : int  (** RTT samples per distance, their median: 3 (§4.2) *)

val distance_probe_spacing : float  (** seconds between those samples: 1 (§4.2) *)

val max_concurrent_distance_probes : int  (** distance measurements at once: 8 *)

val hop_rto_initial : float  (** per-hop RTO before any RTT sample: 0.5 s (§3.2) *)

val hop_rto_min : float  (** per-hop RTO floor: 20 ms (§3.2) *)

val hop_rto_max : float  (** per-hop RTO ceiling: 3 s (§3.2) *)

val exclusion_period : float
(** how long a peer that missed a per-hop ack stays out of routing while
    its probe is unresolved (§3.2), and a routing suspect stays
    distrusted: 30 s *)

val join_retry_period : float  (** join attempt timeout: 20 s *)

val max_join_retries : int  (** join retries before the joiner gives up: 3 *)

val repair_delay : float  (** damping delay before leaf-set repair probes: 1 s *)

val suspicion_backoff : float
(** negative caching: a peer that exhausts its probe retries is
    quarantined this long — no probes, no admission from gossip, no
    routing. Each relapse doubles it up to {!suspicion_backoff_max}; a
    direct message from the peer clears it: 30 s *)

val suspicion_backoff_max : float  (** quarantine clamp: 600 s *)

val e2e_timeout_min : float  (** first end-to-end lookup retry timeout floor: 1 s *)

val overload_threshold : int
(** backlog (messages queued at the node under the netsim capacity
    model) at which [backpressure] engages: 16 *)

val join_rate_window : float  (** sliding window of [join_rate_limit]: 60 s *)

(** {1 Parameters} *)

type t = {
  b : int;  (** digits are base 2^b (paper: 4); set by fig7 *)
  l : int;  (** leaf set size, l/2 per side (paper: 32); set by fig7 and structure *)
  probe_volley : int;
      (** escalation base for liveness-probe packet trains: probe retry
          [k] goes out as [probe_volley{^k}] back-to-back copies (any one
          reply proves liveness), so the first transmission is always a
          single packet and only retries — already evidence of a possible
          loss burst — escalate. [1] (default, the paper's behaviour) =
          every transmission is a single packet. Larger bases let the
          detector ride out correlated loss bursts that would otherwise
          convict an alive peer, at the cost of extra probe traffic on
          lossy links. Set by bursty-retries and the faults-lossy
          benchmark. *)
  per_hop_acks : bool;
      (** §3.2 per-hop acknowledgements; set by ablation and selftuning *)
  active_probing : bool;  (** §3.2 routing-table liveness probes; set by ablation *)
  lr_target : float;
      (** target raw loss rate of the §4.1 self-tuning (0.05); set by
          selftuning *)
  exploit_structure : bool;
      (** §4.1 heartbeat only to the left ring neighbour; when off, every
          leaf-set member is probed every {!t_ls} (the pre-MSPastry
          baseline). Set by structure. *)
  max_hop_reroutes : int;
      (** reroute budget before a hop gives up (20); set by a node test *)
  root_retries : int;
      (** §3.2's consistency/latency dial for the last hop. When the
          key's root misses an ack, the message is retransmitted straight
          to it with growing backoff this many times (recovering lost
          acks) before the next-closest node delivers in its stead.
          [0] = the paper's latency-first variant (deliver at the
          alternative immediately); large values approach
          never-deliver-until-the-root-is-declared-faulty. Default 4.
          Set by consistency. *)
  e2e_lookup_retries : int;
      (** end-to-end lookup retries at the origin: if no [Lookup_ack]
          arrives within an RTO-derived timeout, the lookup is re-routed
          from scratch, with doubling timeout, up to this many re-issues.
          Also switches on root-side duplicate-delivery suppression and
          delivery receipts. [0] (default) = off — the paper's per-hop
          reliability only. Set by bursty-retries, adversary, smoke and
          the faults-lossy benchmark. *)
  backpressure : bool;
      (** overload-graceful mode: when the node's local load signal
          ([load] in {!Node.env}) is at or above {!overload_threshold},
          the node sheds deferrable work — probe volleys collapse to
          single packets, routing-table probe rounds and maintenance
          gossip are skipped (retried at the next tick), and join
          admission is deferred ([Nn_request] and
          [Join_request] service is refused, leaving the joiner's retry
          machinery to try again later) — while heartbeats, leaf-set
          probing and acking continue unthrottled. [false] (default) =
          the paper's behaviour: no load shedding. Set by congestion,
          flash-crowd and congestion-smoke. *)
  verify_gossip : bool;
      (** Byzantine hardening: admit a peer learned through gossip into
          the leaf set or routing table only after a direct
          challenge/response of its claimed identifier (modelling
          certified nodeIds — see DESIGN.md §10). Defeats eclipse-style
          state poisoning at the cost of one extra round trip per
          first-seen peer. [false] (default) = the paper's behaviour:
          gossip is trusted. Set by adversary and adversary-smoke. *)
  progress_check : bool;
      (** Byzantine hardening: every node receiving a forwarded lookup
          checks that the previous hop made routing progress (strictly
          longer shared prefix with the key, or strictly smaller ring
          distance — the Pastry routing invariant); a regressive hop
          marks the forwarder as a routing suspect, excluded from this
          node's routing decisions for {!exclusion_period}. Also arms the
          origin-side diversion: when an end-to-end retry fires, the
          first hop of the failed attempt is excluded before re-routing,
          steering the retry around misrouters and droppers near the
          origin. [false] (default) = off. Set by adversary and
          adversary-smoke. *)
  join_rate_limit : int;
      (** Byzantine hardening: bounded join admission per arc — a node
          serving [Join_request]/[Nn_request] admits at most this many
          joiners per {!join_rate_window}, deferring the rest (the
          joiner's retry machinery tries again later, exactly like
          backpressure deferral). Blunts sybil join floods aimed at one
          arc of the ring. [0] (default) = unlimited. Set by adversary. *)
}

val default : t

val validate : t -> (unit, string) result
(** Check the parameters' ranges; {!Node.create} rejects a config that
    fails. *)
