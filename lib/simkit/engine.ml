type stats = {
  scheduled : int;
  fired : int;
  cancelled : int;
  pending : int;
  heap_hwm : int;
  live_hwm : int;
  events_per_sim_s : float;
}

module Heap = Repro_util.Heap
module Profile = Repro_obs.Profile

let ph_heap = Profile.phase "engine.heap"
let ph_dispatch = Profile.phase "engine.dispatch"

(* an event's firing time is its key in the queue *)
type event = { fn : unit -> unit; mutable cancelled : bool }
type event_id = event

type t = {
  mutable clock : float;
  queue : event Heap.t;
  mutable live : int;
  mutable n_scheduled : int;
  mutable n_fired : int;
  mutable n_cancelled : int;
  mutable heap_hwm : int;
  mutable live_hwm : int;
  trace : Repro_obs.Trace.t;
}

let create ?(trace = Repro_obs.Trace.disabled) () =
  {
    clock = 0.0;
    queue = Heap.create ();
    live = 0;
    n_scheduled = 0;
    n_fired = 0;
    n_cancelled = 0;
    heap_hwm = 0;
    live_hwm = 0;
    trace;
  }

let now t = t.clock

let schedule_at_inner t ~time fn =
  let time = if time < t.clock then t.clock else time in
  let e = { fn; cancelled = false } in
  Heap.push t.queue time e;
  t.live <- t.live + 1;
  if t.live > t.live_hwm then t.live_hwm <- t.live;
  t.n_scheduled <- t.n_scheduled + 1;
  let sz = Heap.size t.queue in
  if sz > t.heap_hwm then t.heap_hwm <- sz;
  e

let schedule_at t ~time fn =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  if !Profile.on then begin
    Profile.enter ph_heap;
    let e = schedule_at_inner t ~time fn in
    Profile.leave ph_heap;
    e
  end
  else schedule_at_inner t ~time fn

let schedule t ~delay fn =
  if Float.is_nan delay then invalid_arg "Engine.schedule: NaN delay";
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t ~time:(t.clock +. delay) fn

let cancel t e =
  if not e.cancelled then begin
    e.cancelled <- true;
    t.live <- t.live - 1;
    t.n_cancelled <- t.n_cancelled + 1;
    if Repro_obs.Trace.enabled t.trace then
      Repro_obs.Trace.emit t.trace
        { Repro_obs.Event.time = t.clock; body = Repro_obs.Event.Timer_cancelled }
  end

let pending t = t.live

let stats t =
  {
    scheduled = t.n_scheduled;
    fired = t.n_fired;
    cancelled = t.n_cancelled;
    pending = t.live;
    heap_hwm = t.heap_hwm;
    live_hwm = t.live_hwm;
    events_per_sim_s =
      (if t.clock > 0.0 then float_of_int t.n_fired /. t.clock else 0.0);
  }

let step t =
  let prof = !Profile.on in
  if prof then Profile.enter ph_heap;
  let q = t.queue in
  while (not (Heap.is_empty q)) && (Heap.min_value q).cancelled do
    ignore (Heap.pop q)
  done;
  if Heap.is_empty q then begin
    if prof then Profile.leave ph_heap;
    false
  end
  else begin
    let time = Heap.min_key q in
    let e = Heap.pop q in
    (* mark spent so a later [cancel] of this id is a no-op rather than
       corrupting the live count *)
    e.cancelled <- true;
    t.live <- t.live - 1;
    t.clock <- time;
    t.n_fired <- t.n_fired + 1;
    if prof then Profile.leave ph_heap;
    if Repro_obs.Trace.enabled t.trace then
      Repro_obs.Trace.emit t.trace
        { Repro_obs.Event.time = t.clock; body = Repro_obs.Event.Timer_fired };
    if prof then begin
      Profile.enter ph_dispatch;
      e.fn ();
      Profile.leave ph_dispatch
    end
    else e.fn ();
    true
  end

let run t ~until =
  let q = t.queue in
  let continue = ref true in
  while !continue do
    if Heap.is_empty q then continue := false
    else if (Heap.min_value q).cancelled then ignore (Heap.pop q)
    else if Heap.min_key q > until then continue := false
    else ignore (step t)
  done;
  if t.clock < until then t.clock <- until

let run_all ?(max_events = max_int) t =
  let fired = ref 0 in
  while !fired < max_events && step t do
    incr fired
  done
