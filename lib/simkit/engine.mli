(** Discrete-event simulation engine.

    A single-threaded virtual clock with a cancellable timer queue.
    Events fire in (time, scheduling sequence) order: simultaneous events
    fire in the order they were scheduled (FIFO), which keeps runs
    deterministic for a fixed seed. A cancelled event stays queued until
    it reaches the head, where it is discarded.

    When {!Repro_obs.Profile} is enabled, heap operations and callback
    dispatch are attributed to the ["engine.heap"] / ["engine.dispatch"]
    profile phases (nested component phases subtract themselves from
    dispatch's self time). *)

type t

type event_id
(** Handle for cancelling a scheduled event. *)

(** Runtime counters, maintained unconditionally (plain integer
    increments — no observable cost). *)
type stats = {
  scheduled : int;  (** events ever scheduled *)
  fired : int;
  cancelled : int;
  pending : int;  (** scheduled, not yet fired or cancelled *)
  heap_hwm : int;  (** high-water mark of the timer-queue size *)
  live_hwm : int;  (** high-water mark of simultaneously-pending events *)
  events_per_sim_s : float;  (** fired / current virtual time *)
}

val create : ?trace:Repro_obs.Trace.t -> unit -> t
(** [trace] (default {!Repro_obs.Trace.disabled}) receives a
    [Timer_fired] / [Timer_cancelled] event per firing / cancellation
    when enabled. *)

val stats : t -> stats

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t +. max delay 0.]. The
    callback runs with the clock set to its firing time. Raises
    [Invalid_argument] on a NaN [delay]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** Absolute-time variant. Times before [now] fire immediately (at [now]).
    Raises [Invalid_argument] on a NaN [time]. *)

val cancel : t -> event_id -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val pending : t -> int
(** Number of scheduled, not-yet-fired, not-cancelled events. *)

val run : t -> until:float -> unit
(** Process events in time order until the queue is empty or the next
    event is later than [until]; the clock finishes at [until]. *)

val run_all : ?max_events:int -> t -> unit
(** Process events until the queue drains (or [max_events] fired). *)

val step : t -> bool
(** Fire the single next event; [false] when the queue is empty. *)
