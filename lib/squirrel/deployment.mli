(** The Fig 8 experiment: a Squirrel deployment driven by a web workload.

    The paper validated its simulator against a real 52-machine Squirrel
    deployment over six days (4 weekdays + a weekend). No deployment is
    possible here, so this module runs the same workload through the full
    packet-level simulator and — as the stand-in for the deployment
    column — through a second, independently-seeded simulation (see
    DESIGN.md §2). The figure's observable is the total traffic per node
    tracking the workload's daily/weekly pattern. *)

type result = {
  total_traffic : (float * float) array;
      (** (time, messages per second per node) — overlay + Squirrel *)
  cache_stats : Cache.stats;
  hit_rate : float;
  n_nodes : int;
  duration : float;
}

val run :
  ?n_nodes:int ->
  ?duration:float ->
  ?window:float ->
  seed:int ->
  unit ->
  result
(** Defaults: 52 nodes, 6 days, 1-hour windows. Clients request at
    {!Workload.generate}'s default peak rate. *)
