(** Declarative, time-stamped fault schedules.

    A schedule is a list of [(time, action)] events the harness injects
    into a running simulation: simultaneous mass crashes, network
    partitions that heal after an interval, swaps of the base loss model
    (e.g. uniform → bursty), and transient link-level overlays. The
    harness interprets the actions ({!Harness.Sim.Live.inject}); this
    module only defines the vocabulary and smart constructors. *)

type node_fault_kind =
  | Fail_slow of { factor : float; extra : float }
      (** every message the victims handle is delayed: propagation
          × [factor] + [extra] seconds of processing *)
  | Fail_silent
      (** victims receive but never send — probes and lookups keep being
          delivered to them while all their replies vanish *)
  | Flapping of { period : float; duty : float }
      (** victims cycle down ([duty · period] seconds, silent in both
          directions) and up, phase-locked to the injection time *)

type action =
  | Crash_fraction of { fraction : float; graceful : bool }
      (** crash this fraction of the currently-active nodes at the same
          instant (rounded to nearest, at least one node when the
          fraction is positive and anyone is alive) *)
  | Set_base of Netfault.t
      (** replace the base loss model (the uniform [loss_rate] process by
          default) from this time on *)
  | Overlay of { fault : Netfault.t; duration : float }
      (** additionally apply [fault] for [duration] seconds, then remove
          it ([infinity] = never heals) *)
  | Partition of { groups : int; duration : float }
      (** split the topology's endpoints uniformly at random into
          [groups] groups, drop all cross-group traffic for [duration]
          seconds, then heal *)
  | Node_fault of { fraction : float; kind : node_fault_kind; duration : float }
      (** afflict this fraction of the currently-active nodes (victims
          drawn from the dedicated fault RNG stream) with a per-node
          fault for [duration] seconds, then lift it ([infinity] = never
          heals) *)
  | Lookup_storm of { rate : float; duration : float }
      (** overload injection: every node active at injection time issues
          an {e additional} [rate] lookups per second (Poisson, on top of
          the configured workload) for [duration] seconds *)
  | Flash_crowd of { joiners : int; over : float }
      (** overload injection: [joiners] fresh nodes start joining the
          overlay, spread evenly over [over] seconds ([0] = all at the
          same instant) *)
  | Adversary of { fraction : float; behavior : Advfault.behavior; duration : float }
      (** compromise this fraction of the currently-active nodes
          (victims drawn from the fault RNG stream) with an adversarial
          {!Advfault.behavior} for [duration] seconds, then lift it
          ([infinity] = never). Flags of overlapping episodes merge;
          each episode lifts only its own *)
  | Sybil_flood of { joiners : int; over : float; lifetime : float }
      (** [joiners] short-lived nodes join spread over [over] seconds
          with identifiers crafted to crowd one victim's leaf set, each
          crashing [lifetime] seconds after its join starts *)
  | Heal
      (** end every lasting episode — link, node and adversary — and
          restore the default base model *)

type event = { time : float; label : string; action : action }
(** [label] names the fault episode in trace events and recovery
    metrics. Every constructor below validates [time]: negative or NaN
    timestamps raise [Invalid_argument] at construction instead of
    silently misordering the simulator's event heap. *)

type t = event list

val empty : t

val crash_fraction : ?graceful:bool -> ?label:string -> time:float -> float -> event
(** [crash_fraction ~time f] — at [time], crash fraction [f] (in
    [\[0, 1\]]) of the active nodes simultaneously. [graceful] departs
    with GOODBYEs instead (default [false] — crashes, as in the paper's
    fault injection). *)

val partition : ?label:string -> time:float -> duration:float -> int -> event
(** [partition ~time ~duration n] — at [time], split endpoints into [n]
    (≥ 2) groups for [duration] (> 0) seconds. *)

val set_base : ?label:string -> time:float -> Netfault.t -> event

val overlay : ?label:string -> time:float -> duration:float -> Netfault.t -> event

val fail_slow :
  ?label:string ->
  ?factor:float ->
  ?extra:float ->
  time:float ->
  duration:float ->
  float ->
  event
(** [fail_slow ~time ~duration f] — at [time], make fraction [f] of the
    active nodes fail-slow (propagation × [factor], default 1, plus
    [extra] seconds, default 0; at least one must be non-trivial) for
    [duration] seconds. *)

val fail_silent : ?label:string -> time:float -> duration:float -> float -> event
(** [fail_silent ~time ~duration f] — fraction [f] of the active nodes
    go mute (receive but never send) for [duration] seconds. *)

val flapping :
  ?label:string ->
  time:float ->
  duration:float ->
  period:float ->
  duty:float ->
  float ->
  event
(** [flapping ~time ~duration ~period ~duty f] — fraction [f] of the
    active nodes cycle down/up ([duty] ∈ (0, 1) of each [period] spent
    down, starting down at injection) for [duration] seconds. *)

val lookup_storm : ?label:string -> time:float -> duration:float -> float -> event
(** [lookup_storm ~time ~duration r] — at [time], every active node adds
    [r] (> 0) lookups/s on top of its configured workload for [duration]
    (> 0) seconds. *)

val flash_crowd : ?label:string -> time:float -> over:float -> int -> event
(** [flash_crowd ~time ~over n] — starting at [time], [n] (≥ 1) fresh
    nodes attempt to join, spread evenly over [over] (≥ 0) seconds. *)

val adversary :
  ?label:string ->
  ?duration:float ->
  time:float ->
  fraction:float ->
  Advfault.behavior ->
  event
(** [adversary ~time ~fraction b] — at [time], compromise fraction
    [fraction] (in [\[0, 1\]], at least one node when positive) of the
    active nodes with behaviour [b] (at least one flag set) for
    [duration] (> 0, default forever) seconds. *)

val sybil_flood :
  ?label:string -> time:float -> over:float -> lifetime:float -> int -> event
(** [sybil_flood ~time ~over ~lifetime n] — starting at [time], [n]
    (≥ 1) sybil joiners with identifiers packed around one victim enter
    spread evenly over [over] (≥ 0) seconds, each crashing [lifetime]
    (> 0) seconds later. *)

val heal : ?label:string -> float -> event
(** [heal time] — clear all injected network, node and adversary
    faults at [time]. *)

val sorted : t -> t
(** Stable-sorted by time (the order {!Harness.Sim.Live} applies it). *)

val describe : action -> string
(** Short human-readable form, e.g. ["crash 25%"], ["partition 2 ways
    for 300s"]. *)
