(** 128-bit Pastry identifiers.

    Node identifiers and object keys are drawn from the same circular
    128-bit space. Values are immutable 16-byte strings in big-endian
    order, so plain [String.compare] is numeric comparison. Ring
    arithmetic reads the two big-endian 64-bit halves: the comparisons
    ({!closer}, {!in_cw_arc}, the [compare_*_dist] family),
    {!shared_prefix_length}/{!digit} and the stored-distance helpers
    ({!store_dist}, {!compare_dist}, {!dist_sum_below_half}) allocate
    nothing; only the functions returning a new identifier ({!add},
    {!sub}, {!cw_dist}, {!ring_dist}) build one.

    Ring geometry: the clockwise distance from [a] to [b] is
    [(b − a) mod 2^128]; the ring distance is the smaller of the two
    directed distances. A key is owned by the live node minimising ring
    distance, with ties broken by the numerically smaller identifier —
    every component of the system uses {!closer} so the tie-break is
    globally consistent. *)

type t = private string

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val zero : t
val max_value : t

val of_string : string -> t
(** Requires a 16-byte string. *)

val to_raw : t -> string

val of_hex : string -> t
(** Requires 32 hex characters. *)

val to_hex : t -> string

val short : t -> string
(** First 8 hex chars — for logs. *)

val random : Repro_util.Rng.t -> t

val of_int : int -> t
(** Identifier with the low 62 bits set from [i] (test helper). *)

val num_digits : b:int -> int
(** Number of base-2^b digits in an identifier: ceil(128/b). *)

val digit : b:int -> t -> int -> int
(** [digit ~b t i] is the i-th digit (0 = most significant) of [t] in base
    2^b. The final digit may span fewer than [b] bits when [b] does not
    divide 128. *)

val shared_prefix_length : b:int -> t -> t -> int
(** Number of leading base-2^b digits the two identifiers share. *)

val add : t -> t -> t
(** Modular 2^128 addition. *)

val sub : t -> t -> t
(** [sub a b] is [(a − b) mod 2^128]. *)

val cw_dist : t -> t -> t
(** [cw_dist a b] — clockwise (increasing id) distance from [a] to [b]. *)

val ring_dist : t -> t -> t
(** Minimum of the two directed distances. *)

val compare_cw_dist : from:t -> t -> t -> int
(** [compare_cw_dist ~from a b] compares [cw_dist from a] with
    [cw_dist from b]: clockwise distance from [from]. *)

val compare_ccw_dist : from:t -> t -> t -> int
(** [compare_ccw_dist ~from a b] compares [cw_dist a from] with
    [cw_dist b from]: counter-clockwise distance from [from]. *)

val compare_ring_dist : key:t -> t -> t -> int
(** [compare_ring_dist ~key a b] compares [ring_dist a key] with
    [ring_dist b key]. Equal distances compare 0 (no identifier
    tie-break; {!closer} adds one). *)

val in_cw_arc : from:t -> til:t -> t -> bool
(** [in_cw_arc ~from ~til x] — is [x] on the closed clockwise arc
    \[from, til\]? When [from = til] the arc is the single point. *)

val closer : key:t -> t -> t -> bool
(** [closer ~key a b] — does [a] strictly win ownership of [key] against
    [b]? Smaller ring distance wins; equal distance falls back to the
    numerically smaller identifier. *)

(** {2 Directed distances in flat buffers}

    A stored distance is two native-order 64-bit halves, high then low,
    at [off] and [off + 8] of a [Bytes.t], so a sorted run of them can be
    searched without touching the identifiers they came from. These are
    the 128-bit half arithmetic outside this module: they take and return
    no [int64], so they allocate nothing whether or not the compiler
    inlines them across modules. *)

val dist_bytes : int
(** Bytes per stored distance (16). *)

val store_dist : Bytes.t -> int -> cw:bool -> from:t -> t -> unit
(** [store_dist b off ~cw ~from x] writes the directed distance of [x]
    from [from] at [off]: clockwise ([cw_dist from x]) when [cw],
    counter-clockwise ([cw_dist x from]) otherwise. *)

val compare_dist : Bytes.t -> int -> Bytes.t -> int -> int
(** [compare_dist a aoff b boff] compares two stored distances as
    unsigned 128-bit numbers. *)

val dist_sum_below_half : Bytes.t -> int -> Bytes.t -> int -> bool
(** Is the sum of two stored distances below 2^127 (without wrapping)? *)

module Tbl : Hashtbl.S with type key = t
(** Identifier-keyed tables: {!equal} on keys and the low 64 bits as the
    hash, so a lookup neither walks the string generically nor allocates.
    Iteration order follows the hash; nothing that reaches a message or
    an output may depend on it. *)

val to_float : t -> float
(** Approximate magnitude as a float in [\[0, 2^128)] — used for
    estimating network size from leaf-set density. *)

val pp : Format.formatter -> t -> unit
