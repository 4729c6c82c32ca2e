(** Self-profiling: hierarchical phase timers over wall-clock time.

    Unlike {!Trace} (which records what the *simulated system* did on the
    virtual clock), this module measures where the *simulator itself*
    spends real time: engine dispatch vs network model vs protocol
    handlers vs tracing overhead.

    The profiler is a process-wide singleton so hot paths pay no handle
    plumbing. Phases are registered once by name ({!phase} returns a
    dense integer id); instrumentation sites guard on the public {!on}
    flag so the disabled path costs one load and one branch:

    {[
      let ph_send = Profile.phase "netsim.send"

      let send t msg =
        if !Profile.on then begin
          Profile.enter ph_send;
          send_inner t msg;
          Profile.leave ph_send
        end
        else send_inner t msg
    ]}

    Accounting uses boundary stamps: every [enter]/[leave] charges the
    interval since the previous boundary to the phase that was running
    ("self" time, which partitions wall time and sums without double
    counting), and separately accumulates inclusive time per phase on
    outermost entries. Wall time is measured from {!set_enabled}[ true];
    the remainder not inside any phase is reported as unattributed.

    Timestamps come from the monotonic clock (ns); [enter]+[leave]
    together cost ~100ns, so phases should wrap work that is at least
    microseconds per call. Not reentrancy-safe across threads. *)

val on : bool ref
(** The master switch, exposed as a [ref] so call sites can guard with a
    single [if !Profile.on then ...]. Flip it with {!set_enabled} (which
    also book-keeps wall time), never by assignment. *)

val set_enabled : bool -> unit
(** Turn profiling on or off. Enabling stamps the wall-clock origin;
    disabling folds the elapsed interval into the accumulated wall time.
    Enabling while already enabled is a no-op (likewise disabling). *)

val enabled : unit -> bool

val phase : string -> int
(** [phase name] registers (or looks up) a phase and returns its id.
    Idempotent: the same name always yields the same id. Call it once at
    module initialisation, not on the hot path. *)

val enter : int -> unit
(** Begin a phase. No-op when disabled. Phases nest: entering [b] while
    inside [a] suspends [a]'s self-time accumulation until [b] leaves. *)

val leave : int -> unit
(** End the innermost phase, which must be the one passed (checked only
    implicitly: mismatched pairs corrupt attribution, not memory).
    No-op when disabled. *)

type entry = {
  name : string;
  calls : int;
  self_ns : int64;  (** time inside this phase, excluding nested phases *)
  total_ns : int64;  (** inclusive time over outermost entries *)
}

type report = {
  wall_ns : int64;  (** wall time with profiling enabled *)
  entries : entry list;  (** phases with [calls > 0], by self time desc *)
  unattributed_ns : int64;  (** [wall_ns] minus the sum of self times *)
}

val reset : unit -> unit
(** Zero all accumulators and the wall clock (phase registrations are
    kept). If enabled, the wall origin restarts now. *)

val report : unit -> report

val pp_report : Format.formatter -> report -> unit
(** Human-readable breakdown: per-phase self/total/calls and the share
    of wall time each phase's self time represents. *)

val report_to_json : report -> Json.t
