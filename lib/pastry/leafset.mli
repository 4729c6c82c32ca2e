(** Pastry leaf set: the l/2 ring neighbours on each side of a node.

    The left side holds the closest identifiers counter-clockwise
    (numerically decreasing, mod 2^128), the right side clockwise. In
    overlays with at most [l] nodes the sides overlap ("wrap"); a wrapped
    leaf set knows every node in the ring and is considered complete even
    when the sides are not full.

    Each side is a fixed array of l/2 slots sorted by directed distance
    from [me], kept beside a flat buffer of those distances (two native
    64-bit halves each, {!Nodeid.store_dist}). A search computes the
    query's distance once, answers "past the farthest member" with one
    comparison and otherwise binary-searches the flat halves, so the
    searches behind {!would_admit}, {!mem}, {!add} and {!remove} never
    dereference a member. The size, the wrap flag and both arc ends are
    maintained on every change, and the {!members} list is rebuilt at
    most once per change. None of the queries on the routing path
    ({!covers}, {!closest}, {!closest_excluding}, {!members},
    {!would_admit}) allocates.

    {!closest_excluding} is O(log l) when the set does not wrap, both
    sides are non-empty and the arc (the leftmost member's
    counter-clockwise plus the rightmost's clockwise distance) is below
    2^127: [me] and every member then lie on one line shorter than half
    the ring, on which ring distance is distance along the line. For a
    key within one side's span, the owner is the nearer, by
    {!Nodeid.closer}, of the first non-excluded member at or beyond the
    key's rank and the last one below it (or [me]). Every other case
    (a wrapped set, an arc of 2^127 or more, a key past both ends) scans
    all members. *)

type t

val create : l:int -> me:Peer.t -> t
(** [l] must be even and >= 2. *)

val me : t -> Peer.t
val l : t -> int

val add : t -> Peer.t -> bool
(** Insert a peer on whichever sides it belongs to. Returns [true] when
    the leaf set changed. The peer equal to [me] is ignored. *)

val remove : t -> Nodeid.t -> bool
(** Remove from both sides; [true] when the peer was present. *)

val mem : t -> Nodeid.t -> bool

val members : t -> Peer.t list
(** All distinct peers (never includes [me]): the right side in order,
    then the left-only members in order. *)

val size : t -> int
(** Number of distinct members. *)

val left_size : t -> int
val right_size : t -> int

val left_neighbor : t -> Peer.t option
(** Immediate counter-clockwise neighbour — heartbeat target. *)

val right_neighbor : t -> Peer.t option
(** Immediate clockwise neighbour — the node whose heartbeats we watch. *)

val leftmost : t -> Peer.t option
(** Furthest member counter-clockwise. *)

val rightmost : t -> Peer.t option

val wraps : t -> bool
(** The two sides share a member — the leaf set spans the whole ring. *)

val complete : t -> bool
(** Both sides full, or the set wraps, or the overlay is a singleton. *)

val covers : t -> Nodeid.t -> bool
(** Is the key on the arc \[leftmost, rightmost\] through [me]? Always
    true when the set wraps or the node is alone; false whenever exactly
    one side is empty (the paper suspends delivery in that state). *)

val closest : t -> Nodeid.t -> Peer.t
(** Member (including [me]) owning the key under {!Nodeid.closer}. *)

val closest_excluding : t -> Nodeid.t -> excluded:(Nodeid.t -> bool) -> Peer.t
(** Like {!closest} but skipping excluded peers; [me] is never excluded,
    so there is always an answer. [excluded] must be pure: which members
    it is asked about depends on the path taken. On the binary-search
    path it is consulted for the members next to the key's rank, outward
    until one on each side is not excluded; on the scan path, for each
    member that would beat the best candidate so far. *)

val would_admit : t -> Nodeid.t -> bool
(** Would {!add} of this identifier change the leaf set? *)

val pp : Format.formatter -> t -> unit
