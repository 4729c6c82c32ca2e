(** A pull-based registry of named runtime counters and gauges.

    Components expose cheap accessor closures (reading the plain mutable
    counters they maintain anyway); the registry samples them on demand
    for a dump or a JSON snapshot. Registration order is preserved
    in dumps so related metrics stay adjacent. *)

type value = Int of int | Float of float

type t

val create : unit -> t

val gauge_i : t -> string -> (unit -> int) -> unit
val gauge_f : t -> string -> (unit -> float) -> unit
(** Re-registering a name raises [Invalid_argument]: silent shadowing
    hid wiring bugs where two components fought over one metric. *)

val dump : t -> (string * value) list
(** Sample every metric, in registration order. *)

val find : t -> string -> value option

val to_json : t -> Json.t
(** An object mapping metric names to their sampled values. *)
