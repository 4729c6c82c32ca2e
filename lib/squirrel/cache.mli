(** Squirrel: a decentralised co-operative web cache on MSPastry.

    Home-store model (Iyer, Rowstron, Druschel — PODC'02): the key of a
    Web object is the hash of its URL; the key's root node is the
    object's {e home node} and caches it. A client's proxy routes a
    lookup to the home node; on a hit the object comes straight back, on
    a miss the home node fetches it from the origin server first.

    The cache rides on a {!Harness.Sim.Live} overlay: requests are
    overlay lookups (so they exercise — and are measured by — the full
    MSPastry machinery) and responses are direct network transfers
    accounted in this module's own traffic series. *)

type t

val create :
  ?capacity_per_node:int ->
  live:Harness.Sim.Live.t ->
  unit ->
  t
(** [capacity_per_node] — cached objects per home node before LRU
    eviction, default 4096. The origin server is 0.15 s away, one way. *)

val key_of_url : string -> Pastry.Nodeid.t
(** MD5 of the URL, the paper's SHA-1 stand-in (both give uniform
    128-bit keys). *)

val request : t -> client:Mspastry.Node.t -> url:string -> unit
(** Issue one browser request from the given node's proxy. *)

type stats = {
  requests : int;
  responses : int;  (** answered (hit or miss-then-fetch) *)
  hits : int;
  misses : int;
  failed : int;  (** lookup never reached a home node (timeout) *)
  mean_latency : float;  (** request → response arrival, seconds *)
  cached_objects : int;  (** currently resident across all home nodes *)
}

val stats : t -> stats

val traffic_series : t -> (float * float) array
(** Squirrel's own (non-overlay) messages — object responses and origin
    fetches — per second per active node, on the overlay collector's
    windows ({!Overlay_metrics.Collector.window}). Add to the collector's
    series for Fig 8's total traffic. *)
