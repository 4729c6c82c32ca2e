(** Ground-truth key-ownership oracle.

    The harness keeps the set of currently-active node identifiers here;
    a delivery is {e correct} iff the delivering node is the active node
    ring-closest to the key at delivery time (§5.2), under the same
    tie-break as the protocol ({!Pastry.Nodeid.closer}).

    The members are a sorted id array with a parallel address array: a
    query is a binary search, and {!add}/{!remove} shift the tail of the
    arrays, O(n). The harness queries on every delivery and changes the
    set only on a join or a departure. *)

type t

val create : unit -> t

val add : t -> Pastry.Nodeid.t -> int -> unit
(** Add an id with its address, or replace the address of a member. *)

val remove : t -> Pastry.Nodeid.t -> unit
(** Remove an id; an absent id is a no-op. *)

val size : t -> int
val mem : t -> Pastry.Nodeid.t -> bool

val closest : t -> Pastry.Nodeid.t -> (Pastry.Nodeid.t * int) option
(** The active (id, addr) owning the key; [None] when the set is empty.
    O(log n): the owner is the key's ring successor or predecessor. *)

(** Result of a {!ring_audit}: how many active nodes were audited and how
    many of their claimed ring neighbours match the oracle's ground
    truth. [agreement] is [(left_ok + right_ok) / (2 · audited)] ([1.0]
    when nothing was auditable). *)
type ring_audit = {
  audited : int;
  left_ok : int;
  right_ok : int;
  agreement : float;
}

val ring_audit :
  t ->
  neighbors:(int -> (Pastry.Nodeid.t option * Pastry.Nodeid.t option) option) ->
  ring_audit
(** [ring_audit t ~neighbors] compares every member's claimed (left,
    right) ring neighbours — as reported by [neighbors addr], typically a
    node's leaf set; return [None] to skip a node — against the oracle's
    sorted ring (with wrap-around; a singleton ring expects [None] on
    both sides). The paper's routing-consistency property holds when
    [agreement = 1.0]: each active node agrees with ground truth about
    its immediate ring neighbours, so every key has exactly one root. *)
