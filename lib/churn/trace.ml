module Rng = Repro_util.Rng
module Series = Repro_util.Series

type kind = Join | Leave

type event = { time : float; node : int; kind : kind }

type t = { name : string; events : event array; duration : float; n_nodes : int }

let name t = t.name
let events t = t.events
let duration t = t.duration
let n_nodes t = t.n_nodes

let sort_events evs =
  let a = Array.of_list evs in
  Array.sort
    (fun e1 e2 ->
      let c = compare e1.time e2.time in
      if c <> 0 then c
      else begin
        (* leaves before joins at equal times keeps population bounded *)
        let rank = function Leave -> 0 | Join -> 1 in
        let c = compare (rank e1.kind) (rank e2.kind) in
        if c <> 0 then c else compare e1.node e2.node
      end)
    a;
  a

let max_concurrent t =
  let cur = ref 0 and best = ref 0 in
  Array.iter
    (fun e ->
      (match e.kind with Join -> incr cur | Leave -> decr cur);
      if !cur > !best then best := !cur)
    t.events;
  !best

let mean_session t =
  let join_time = Hashtbl.create 256 in
  let acc = ref 0.0 and n = ref 0 in
  Array.iter
    (fun e ->
      match e.kind with
      | Join -> Hashtbl.replace join_time e.node e.time
      | Leave -> (
          match Hashtbl.find_opt join_time e.node with
          | Some jt ->
              acc := !acc +. (e.time -. jt);
              incr n
          | None -> ()))
    t.events;
  if !n = 0 then 0.0 else !acc /. float_of_int !n

(* Build a trace from (join_time, session_length) pairs. *)
let of_sessions ~name ~duration sessions =
  let evs = ref [] in
  let node = ref 0 in
  List.iter
    (fun (jt, session) ->
      if jt < duration then begin
        let id = !node in
        incr node;
        evs := { time = jt; node = id; kind = Join } :: !evs;
        let lt = jt +. session in
        if lt <= duration then evs := { time = lt; node = id; kind = Leave } :: !evs
      end)
    sessions;
  { name; events = sort_events !evs; duration; n_nodes = !node }

let poisson rng ~n_avg ~session_mean ~duration =
  if n_avg <= 0 || session_mean <= 0.0 || duration <= 0.0 then invalid_arg "Trace.poisson";
  let ramp = Float.min 600.0 (duration /. 10.0) in
  let sessions = ref [] in
  (* initial population staggered over the ramp *)
  for _ = 1 to n_avg do
    let jt = Rng.float rng ramp in
    (* residual lifetime of a stationary renewal process with exponential
       sessions is again exponential *)
    let s = Rng.exponential rng ~mean:session_mean in
    sessions := (jt, s) :: !sessions
  done;
  (* steady-state arrivals *)
  let rate = float_of_int n_avg /. session_mean in
  let t = ref ramp in
  let continue = ref true in
  while !continue do
    t := !t +. Rng.exponential rng ~mean:(1.0 /. rate);
    if !t >= duration then continue := false
    else sessions := (!t, Rng.exponential rng ~mean:session_mean) :: !sessions
  done;
  of_sessions ~name:(Printf.sprintf "poisson-%ds" (int_of_float session_mean)) ~duration
    !sessions

(* Lognormal parameters from a target median and mean:
   median = exp mu, mean = exp (mu + sigma^2/2). *)
let lognormal_params ~median ~mean =
  if mean <= median then invalid_arg "lognormal_params: mean must exceed median";
  let mu = log median in
  let sigma = sqrt (2.0 *. log (mean /. median)) in
  (mu, sigma)

type profile = {
  p_name : string;
  n_base : float;
  diurnal_amp : float;
  weekend_drop : float; (* fraction of population absent on weekends *)
  session_median : float;
  session_mean : float;
}

(* Population-tracking synthetic churn. The target population follows a
   day/week pattern; arrivals are an inhomogeneous Poisson process whose
   rate both replaces departures and tracks the moving target, so the
   per-node failure rate shows the daily/weekly swings of Fig 3. *)
let synthetic rng profile ~scale ~duration =
  let day = 86_400.0 and relax = 1800.0 in
  let mu, sigma = lognormal_params ~median:profile.session_median ~mean:profile.session_mean in
  let sample_session () = Rng.lognormal rng ~mu ~sigma in
  let target t =
    let daily = 1.0 +. (profile.diurnal_amp *. sin (2.0 *. Float.pi *. t /. day)) in
    let dow = int_of_float (floor (t /. day)) mod 7 in
    let weekly = if dow = 5 || dow = 6 then 1.0 -. profile.weekend_drop else 1.0 in
    profile.n_base *. scale *. daily *. weekly
  in
  let dt = 10.0 in
  let sessions = ref [] in
  (* leave times of currently-active sessions, to track population *)
  let leaves = Repro_util.Heap.create () in
  let population = ref 0 in
  let t = ref 0.0 in
  while !t < duration do
    (* expire sessions *)
    while (not (Repro_util.Heap.is_empty leaves)) && Repro_util.Heap.min_key leaves <= !t do
      Repro_util.Heap.pop leaves;
      decr population
    done;
    let p = float_of_int !population in
    let tracking = (target !t -. p) /. relax in
    let replacement = p /. profile.session_mean in
    let rate = Float.max 0.0 (tracking +. replacement) in
    let k = Rng.poisson rng ~mean:(rate *. dt) in
    for _ = 1 to k do
      let jt = !t +. Rng.float rng dt in
      let s = sample_session () in
      sessions := (jt, s) :: !sessions;
      Repro_util.Heap.push leaves (jt +. s) ();
      incr population
    done;
    t := !t +. dt
  done;
  of_sessions ~name:profile.p_name ~duration !sessions

let hours h = h *. 3600.0
let days d = d *. 86_400.0

let gnutella ?(scale = 1.0) ?duration rng =
  let duration = match duration with Some d -> d | None -> hours 60.0 in
  synthetic rng
    {
      p_name = "gnutella";
      n_base = 2000.0;
      diurnal_amp = 0.35;
      weekend_drop = 0.0;
      session_median = hours 1.0;
      session_mean = hours 2.3;
    }
    ~scale ~duration

let overnet ?(scale = 1.0) ?duration rng =
  let duration = match duration with Some d -> d | None -> days 7.0 in
  synthetic rng
    {
      p_name = "overnet";
      n_base = 455.0;
      diurnal_amp = 0.43;
      weekend_drop = 0.10;
      session_median = 79.0 *. 60.0;
      session_mean = 134.0 *. 60.0;
    }
    ~scale ~duration

let microsoft ?(scale = 0.1) ?duration rng =
  let duration = match duration with Some d -> d | None -> days 37.0 in
  synthetic rng
    {
      p_name = "microsoft";
      n_base = 15150.0;
      diurnal_amp = 0.03;
      weekend_drop = 0.02;
      session_median = hours 30.0;
      session_mean = hours 37.7;
    }
    ~scale ~duration

(* the number [nw] of [window]-second windows covering the trace and, by
   window number, each window's midpoint, population-time and
   departures *)
let sweep t ~window =
  let nw = int_of_float (ceil (t.duration /. window)) in
  let pop = Series.create ~window and departures = Series.create ~window in
  let cur = ref 0 and last = ref 0.0 in
  let credit until =
    Series.integrate pop ~from:!last ~until (float_of_int !cur);
    last := until
  in
  Array.iter
    (fun e ->
      credit e.time;
      match e.kind with
      | Join -> incr cur
      | Leave ->
          decr cur;
          Series.count departures ~time:e.time)
    t.events;
  credit t.duration;
  (* the last window also takes what falls at its end: a departure at
     exactly [duration] *)
  let at s w = if w = nw - 1 then Series.sum s w +. Series.sum s nw else Series.sum s w in
  (nw, Series.mid pop, at pop, at departures)

let failure_rate_series t ~window =
  let nw, mid, pop, departures = sweep t ~window in
  Array.init (max nw 0) (fun w ->
      (mid w, if pop w <= 0.0 then 0.0 else departures w /. pop w))

let population_series t ~window =
  let nw, mid, pop, _ = sweep t ~window in
  Array.init (max nw 0) (fun w -> (mid w, pop w /. window))
