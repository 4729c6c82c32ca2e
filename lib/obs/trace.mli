(** The tracing front door handed to instrumented components.

    Hot-path contract: instrumentation sites guard event construction on
    {!enabled}, so the {!disabled} trace costs a single branch and no
    allocation per site. An enabled trace forwards every event to its
    {!Sink}. *)

type t

val disabled : t
(** The shared null trace: {!enabled} is [false], {!emit} is a no-op. *)

val create : Sink.t -> t
val enabled : t -> bool
val emit : t -> Event.t -> unit

val events : t -> Event.t list
(** Contents (oldest first) of a [Memory] sink; [[]] for other sinks. *)

val close : t -> unit
(** Closes the sink ({!Sink.close}); a no-op for {!disabled}. *)
