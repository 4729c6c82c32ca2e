(** Array-backed binary min-heap keyed by an unboxed float.

    Keys live in a [float array], next to arrays of insertion sequence
    numbers and of the slots where the values are kept; a value does not
    move while queued. Entries pop in (key, insertion) order: equal keys
    pop first-in first-out, which gives the simulator a deterministic
    order for simultaneous events. Keys compare with the float [<] and
    [=], so [0.0] and [-0.0] are equal keys and [infinity] is the
    largest. Neither push nor pop allocates once the arrays have grown. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h key v] inserts [v] under [key]. Raises [Invalid_argument] on
    a NaN key, which has no place in the order. *)

val min_key : 'a t -> float
(** Key of the minimum entry. Raises [Invalid_argument] when empty. *)

val min_value : 'a t -> 'a
(** Value of the minimum entry. Raises [Invalid_argument] when empty. *)

val pop : 'a t -> 'a
(** Removes the minimum entry and returns its value. Raises
    [Invalid_argument] when empty. *)
