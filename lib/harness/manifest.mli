(** Run manifests: one self-describing JSON document per simulation run.

    A manifest ties a run's protocol results to the exact code and
    configuration that produced them — config + seed + [git describe],
    every registry counter, bounded-histogram summaries, the profiler's
    wall-clock breakdown, and engine peak statistics — so a results
    table can cite a [run.json] instead of an unreproducible console
    scrape. The schema is documented in DESIGN.md §9; [bin/statsdump]
    pretty-prints and diffs manifests.

    {!Sim.Live.manifest} assembles the document for a live run; this
    module holds the assembly glue and file I/O. *)

val schema : string
(** The manifest schema identifier written to every document
    (["mspastry-run-manifest/1"]); bump on incompatible layout change. *)

val build :
  label:string ->
  seed:int ->
  config:Repro_obs.Json.t ->
  counters:Repro_obs.Json.t ->
  histograms:(string * Repro_obs.Json.t) list ->
  profile:Repro_obs.Json.t ->
  engine:Repro_obs.Json.t ->
  Repro_obs.Json.t
(** Assemble a schema-versioned manifest object from its sections. *)

val write : path:string -> Repro_obs.Json.t -> unit
(** Serialise to [path] (single line + newline), overwriting. *)
