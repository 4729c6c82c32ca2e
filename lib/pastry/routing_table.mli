(** Pastry routing table: [ceil(128/b)] rows × [2^b] columns.

    The entry at (row [r], column [c]) is a peer whose identifier shares
    the first [r] digits with the local node and has [c] as digit [r].
    Proximity-aware: each entry remembers the measured round-trip delay to
    the peer, and {!consider} only replaces an entry with a strictly
    closer one (proximity neighbour selection).

    The table counts the occupied slots of each row and tracks its
    highest occupied row, so walks over the entries ({!iter},
    {!entries}, {!peers}) visit only rows [0 .. used_rows - 1] and skip
    empty ones: in an overlay of N nodes only about log_{2^b} N rows are
    ever occupied. *)

type t

type entry = { peer : Peer.t; rtt : float }

val create : b:int -> me:Nodeid.t -> t

val b : t -> int
val rows : t -> int
val cols : t -> int
val me : t -> Nodeid.t

val used_rows : t -> int
(** One more than the index of the highest occupied row (0 for an empty
    table): rows from [used_rows] on are empty. *)

val slot_of : t -> Nodeid.t -> (int * int) option
(** Row/column where this identifier belongs; [None] for the local id. *)

val get : t -> int -> int -> entry option
val find : t -> Nodeid.t -> entry option

val consider : t -> Peer.t -> rtt:float -> bool
(** PNS install: fill an empty slot, or replace a strictly more distant
    occupant. Returns [true] when the table changed. *)

val set : t -> Peer.t -> rtt:float -> bool
(** Unconditional install into the peer's slot: whatever occupies it,
    closer or not, is overwritten. Callers that must not evict check the
    slot first. Returns [false] only for the local id. *)

val remove : t -> Nodeid.t -> bool
(** Evict the entry holding exactly this identifier. *)

val row_entries : t -> int -> entry list
(** Occupied entries of one row. *)

val entries : t -> entry list
(** All occupied entries. *)

val peers : t -> Peer.t list

val iter : (entry -> unit) -> t -> unit
(** Visit the occupied entries in {!entries} order without building a list. *)

val count : t -> int
(** Number of occupied slots. *)

val update_rtt : t -> Nodeid.t -> float -> unit
(** Refresh the proximity estimate of an existing entry. *)

val pp : Format.formatter -> t -> unit
