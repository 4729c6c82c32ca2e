(** Event sinks: where a {!Trace} puts the events it is handed.

    Two implementations: a bounded in-memory ring buffer (tests,
    interactive inspection) and a JSONL file writer (offline analysis —
    one {!Event.to_json} line per event, read back by [bin/tracedump
    --events]). The null case lives in {!Trace} as the disabled trace:
    hook sites guard on {!Trace.enabled}, so a disabled trace costs one
    branch and no allocation. *)

module Ring : sig
  (** Bounded FIFO over anything; on overflow the oldest element is
      evicted (and counted). *)

  type 'a t

  val create : capacity:int -> 'a t
  (** [capacity] must be positive. *)

  val push : 'a t -> 'a -> unit
  val length : 'a t -> int
  val capacity : 'a t -> int

  val evicted : 'a t -> int
  (** Elements pushed out by overflow since creation. *)

  val to_list : 'a t -> 'a list
  (** Oldest first. *)

  val clear : 'a t -> unit
end

type t = Memory of Event.t Ring.t | Jsonl of out_channel

val memory : capacity:int -> t

val jsonl_file : string -> t
(** Opens (truncates) [path]; remember to {!close}. *)

val emit : t -> Event.t -> unit

val close : t -> unit
(** Flushes and closes a [Jsonl] sink's file; a no-op for [Memory]. *)
