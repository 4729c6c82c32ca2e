(** Pastry routing table: [ceil(128/b)] rows × [2^b] columns.

    The entry at (row [r], column [c]) is a peer whose identifier shares
    the first [r] digits with the local node and has [c] as digit [r].
    Proximity-aware: each entry remembers the measured round-trip delay to
    the peer, and {!consider} only replaces an entry with a strictly
    closer one (proximity neighbour selection). *)

type t

type entry = { peer : Peer.t; rtt : float }

val create : b:int -> me:Nodeid.t -> t

val b : t -> int
val rows : t -> int
val cols : t -> int
val me : t -> Nodeid.t

val slot_of : t -> Nodeid.t -> (int * int) option
(** Row/column where this identifier belongs; [None] for the local id. *)

val get : t -> int -> int -> entry option
val find : t -> Nodeid.t -> entry option

val consider : t -> Peer.t -> rtt:float -> bool
(** PNS install: fill an empty slot, or replace a strictly more distant
    occupant. Returns [true] when the table changed. *)

val set : t -> Peer.t -> rtt:float -> bool
(** Unconditional install into the peer's slot (used when the previous
    occupant was evicted); still refuses to evict a closer occupant with
    the same identifier semantics as [consider] except occupancy by a
    different peer is overwritten. Returns [true] when the table changed. *)

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
