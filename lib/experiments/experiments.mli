(** One runner per table/figure of the paper's §5.

    Each function runs the corresponding experiment and prints the same
    rows/series the paper plots (see DESIGN.md §4 for the experiment
    index and EXPERIMENTS.md for paper-vs-measured numbers). [size]
    scales population and simulated time:
    - [Quick] ≈ 150 nodes, ~2.5 simulated hours — seconds to minutes of
      wall time;
    - [Medium] ≈ 400 nodes, 6 hours;
    - [Full] — the paper's dimensions (thousands of nodes, days;
      expensive). *)

type size = Quick | Medium | Full

val set_manifest_out : string option -> unit
(** Direct subsequent runs to write their manifest (DESIGN.md §9) to
    this path on close. Experiments that run several configurations
    reuse the path — the file ends up holding the last run's manifest.
    Default [None] (no manifest). *)

val fig3 : size -> seed:int -> unit
(** Node failure rates over time for the three traces. *)

val topology_table : size -> seed:int -> unit
(** §5.3 "Network topology": loss, control traffic and RDP on CorpNet,
    GATech and Mercator. *)

val fig4 : size -> seed:int -> unit
(** RDP and control traffic over (normalised) time for the three traces,
    plus the per-class control breakdown on the Gnutella trace. *)

val fig5 : size -> seed:int -> unit
(** RDP, control traffic and join-latency CDF for Poisson traces with
    session times 5–600 minutes. *)

val fig6 : size -> seed:int -> unit
(** RDP, control traffic, lookup loss rate and incorrect delivery rate
    as network loss varies 0–5%. *)

val fig7 : size -> seed:int -> unit
(** Control traffic and RDP vs leaf-set size l; RDP vs b. *)

val ablation : size -> seed:int -> unit
(** §5.3 "Active probing and per-hop acks": the four technique
    combinations at two application traffic levels. *)

val selftuning : size -> seed:int -> unit
(** §5.3: achieved raw loss rate and control traffic when tuning to
    Lr = 5% vs 1% (per-hop acks off). *)

val suppression : size -> seed:int -> unit
(** §5.3: failure-detection traffic suppressed by application traffic. *)

val structure_ablation : size -> seed:int -> unit
(** Extra ablation for §4.1's claim: leaf-set maintenance overhead vs l
    with and without the single-heartbeat optimisation. *)

val fig8 : size -> seed:int -> unit
(** Squirrel total traffic per node over six days, two seeds. *)

val consistency : size -> seed:int -> unit
(** §3.2's consistency-latency trade-off: the default retry-the-root
    policy against the deliver-at-the-alternative variant, with and
    without link loss. *)

val massive_failure : size -> seed:int -> unit
(** E-faults A: crash 10–50% of the active overlay simultaneously under
    OverNet-like churn and report the collector's recovery metrics —
    time-to-repair, peak windowed lookup-loss / incorrect-delivery rates,
    and the post-convergence (oracle-checked) incorrect rate. *)

val bursty_loss : size -> seed:int -> unit
(** E-faults B: Gilbert–Elliott bursty loss vs the paper's uniform loss
    at the same long-run average rate (equal raw drop probability,
    different correlation structure). *)

val fail_slow : size -> seed:int -> unit
(** E-failslow: inject fail-slow node faults (multiplicative slowdown or
    additive per-message processing delay) into a fraction of the
    overlay and report failure-detector accuracy — suspicion counts,
    false-suspicion rate of slow-but-alive victims, time-to-detect true
    (churn) crashes — and the lookup-latency tail (p50/p99). *)

val bursty_retries : size -> seed:int -> unit
(** E-faults B rerun with end-to-end lookup retries (and root-side
    duplicate suppression) enabled: success rate under uniform vs bursty
    loss, with and without retries. The acceptance bar is ≥ 99% of
    judged lookups correctly delivered with retries on. *)

val congestion : size -> seed:int -> unit
(** E-congestion: a lookup storm against bounded per-node capacity
    (service rate + finite queue). Compares an uncapped control run, the
    naive overlay (FIFO, no backpressure — congestive collapse) and the
    graceful one (control prioritised, probe/join backpressure): success
    rate during and after the storm, queueing-delay percentiles,
    congestion drops, collapse windows and ring-consistency agreement. *)

val flash_crowd : size -> seed:int -> unit
(** E-flashcrowd: a mass-join flash crowd against a small steady overlay
    with bounded capacity, admission control off vs on. The acceptance
    bar is a ≥ 2× lookup success rate during the crowd for the graceful
    variant. *)

val adversary : size -> seed:int -> unit
(** E-adversary: compromise a fraction f ∈ {0, 0.05, 0.1, 0.2, 0.3} of
    the live overlay with Byzantine behaviour (misroute + drop + eclipse
    poisoning; transport stays probe-alive) and report lookup success,
    ring agreement, eclipse exposure and hardening counters, unhardened
    baseline vs hardened (gossip verification + progress checking +
    join-rate filter) at every f, plus a sybil join flood against the
    per-arc admission filter. *)

val adversary_smoke : seed:int -> unit
(** Fixed-cost CI gate for the adversarial axis: asserts the hardened
    variant beats the baseline at f = 0.2 on success and ring agreement,
    that poisoning lands in the baseline but never survives
    verification, and that a zero-adversary run keeps every hardening
    path cold. *)

val congestion_smoke : seed:int -> unit
(** Fixed-cost CI run for the congestion path: fails loudly if the
    capacity model never dropped, the queue taps never fired, or the
    default-off run recorded any congestion activity. *)

val smoke : seed:int -> unit
(** Fixed-cost tiny run for CI: exercises node-fault injection, the
    suspicion list and end-to-end retries, and fails loudly if any of
    those paths stayed cold. *)

val apps : size -> seed:int -> unit
(** Extension experiment: the applications the paper motivates (§1, §3.1)
    riding on the overlay under Gnutella-like churn — Scribe multicast
    delivery ratio and PAST storage durability. *)

val all : size -> seed:int -> unit
(** Every experiment above except the three CI gates, in {!runners}'
    order. *)

val runners : (string * (size -> seed:int -> unit)) list
(** Each experiment by its command-line name, in the order {!all} runs
    them, then the fixed-cost CI gates [adversary-smoke],
    [congestion-smoke] and [smoke] (which ignore the size). *)
