(** A PAST-style replicated key-value store on MSPastry.

    PAST (Rowstron & Druschel, SOSP'01) is the archival storage system
    the paper cites as a victim of routing inconsistency (§3.1): objects
    live at the [k] nodes whose identifiers are closest to the object key
    (the root and its leaf-set neighbours). This module implements the
    storage substrate:

    - {!put} routes an insert to the key's root, which stores the object
      and pushes replicas to its [k−1] nearest leaf-set members;
    - {!get} routes a fetch to the root; if the root lacks the object
      (e.g. it became root only after a failure) it pulls from its
      neighbours before answering — lazy replica recovery;
    - every node periodically re-replicates what it holds toward the
      current root, so replica sets track ring membership under churn.

    Durability under churn is the observable the store experiment
    reports: the fraction of successful gets over time. *)

type t

val create :
  ?replicas:int ->
  ?refresh_period:float ->
  live:Harness.Sim.Live.t ->
  unit ->
  t
(** [replicas] — target copies per object, default 3. [refresh_period] —
    re-replication sweep interval, default 120 s. A get unanswered
    after 10 s counts as a timeout. *)

val put : t -> client:Mspastry.Node.t -> key:string -> value:string -> unit
val get : t -> client:Mspastry.Node.t -> key:string -> unit

type stats = {
  puts : int;
  put_acks : int;  (** puts confirmed stored at the root *)
  gets : int;
  get_hits : int;
  get_misses : int;  (** answered, but the object was gone *)
  get_timeouts : int;  (** never answered *)
  stored_objects : int;  (** replicas currently resident, all nodes *)
  repair_pulls : int;  (** lazy recoveries by fresh roots *)
}

val stats : t -> stats

val object_replicas : t -> key:string -> int
(** Live copies of one object (test introspection). *)
