module Engine = Simkit.Engine

let test_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log));
  Engine.run_all e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now e)

let test_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run_all e;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let ev = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel e ev;
  Engine.run_all e;
  Alcotest.(check bool) "not fired" false !fired;
  (* double cancel is a no-op *)
  Engine.cancel e ev;
  Alcotest.(check int) "pending" 0 (Engine.pending e)

let test_run_until () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:5.0 (fun () -> log := 5 :: !log));
  Engine.run e ~until:2.0;
  Alcotest.(check (list int)) "only first" [ 1 ] !log;
  Alcotest.(check (float 1e-9)) "clock advanced to until" 2.0 (Engine.now e);
  Engine.run e ~until:10.0;
  Alcotest.(check (list int)) "second fired" [ 5; 1 ] !log

let test_schedule_inside_callback () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log))));
  Engine.run_all e;
  Alcotest.(check (list string)) "nested" [ "inner"; "outer" ] !log;
  Alcotest.(check (float 1e-9)) "clock" 2.0 (Engine.now e)

let test_schedule_at_past () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> ()));
  Engine.run_all e;
  let fired_at = ref 0.0 in
  ignore (Engine.schedule_at e ~time:1.0 (fun () -> fired_at := Engine.now e));
  Engine.run_all e;
  Alcotest.(check (float 1e-9)) "clamped to now" 5.0 !fired_at

let test_negative_delay () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~delay:(-3.0) (fun () -> fired := true));
  Engine.run_all e;
  Alcotest.(check bool) "fires immediately" true !fired;
  Alcotest.(check (float 1e-9)) "clock unchanged" 0.0 (Engine.now e)

let test_pending_count () =
  let e = Engine.create () in
  let a = Engine.schedule e ~delay:1.0 (fun () -> ()) in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  Engine.cancel e a;
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Engine.run_all e;
  Alcotest.(check int) "none pending" 0 (Engine.pending e)

let test_max_events () =
  let e = Engine.create () in
  (* self-perpetuating event chain *)
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule e ~delay:1.0 tick)
  in
  ignore (Engine.schedule e ~delay:1.0 tick);
  Engine.run_all ~max_events:50 e;
  Alcotest.(check int) "bounded" 50 !count

let test_step () =
  let e = Engine.create () in
  Alcotest.(check bool) "empty step" false (Engine.step e);
  ignore (Engine.schedule e ~delay:1.0 (fun () -> ()));
  Alcotest.(check bool) "one step" true (Engine.step e);
  Alcotest.(check bool) "drained" false (Engine.step e)

let test_nan_rejected () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter
    (fun d -> ignore (Engine.schedule e ~delay:d (fun () -> log := Engine.now e :: !log)))
    [ 5.0; 1.0; 3.0 ];
  Alcotest.check_raises "nan delay" (Invalid_argument "Engine.schedule: NaN delay") (fun () ->
      ignore (Engine.schedule e ~delay:nan ignore));
  Alcotest.check_raises "nan time" (Invalid_argument "Engine.schedule_at: NaN time")
    (fun () -> ignore (Engine.schedule_at e ~time:nan ignore));
  let s = Engine.stats e in
  Alcotest.(check int) "nothing queued" 3 s.Engine.scheduled;
  Alcotest.(check int) "pending" 3 (Engine.pending e);
  Engine.run_all e;
  Alcotest.(check (list (float 0.0))) "only the valid events fire" [ 1.0; 3.0; 5.0 ]
    (List.rev !log)

(* Reference model of the engine: a plain list searched for its
   (time, scheduling sequence) minimum, with the engine's lazy deletion
   (a cancelled event leaves the queue when it reaches the head, in
   [step] or [run]). *)
module Model = struct
  type ev = { time : float; id : int; spawn : bool; mutable spent : bool }

  type t = {
    mutable clock : float;
    mutable queue : ev list;  (* newest first *)
    events : (int, ev) Hashtbl.t;
    mutable next_id : int;
    mutable scheduled : int;
    mutable fired : int;
    mutable cancelled : int;
    mutable live : int;
    mutable heap_hwm : int;
    mutable live_hwm : int;
    mutable log : (float * int) list;
  }

  let create () =
    { clock = 0.0; queue = []; events = Hashtbl.create 16; next_id = 0; scheduled = 0;
      fired = 0; cancelled = 0; live = 0; heap_hwm = 0; live_hwm = 0; log = [] }

  let schedule_at m ~time spawn =
    let time = if time < m.clock then m.clock else time in
    let ev = { time; id = m.next_id; spawn; spent = false } in
    Hashtbl.replace m.events ev.id ev;
    m.next_id <- m.next_id + 1;
    m.queue <- ev :: m.queue;
    m.scheduled <- m.scheduled + 1;
    m.live <- m.live + 1;
    m.live_hwm <- max m.live_hwm m.live;
    m.heap_hwm <- max m.heap_hwm (List.length m.queue)

  (* the earliest time, and among equal times the earliest scheduled:
     the fold visits newest first and keeps the last tie it sees *)
  let head m =
    List.fold_left
      (fun best ev ->
        match best with Some b when b.time < ev.time -> best | _ -> Some ev)
      None m.queue

  let remove m ev = m.queue <- List.filter (fun x -> x != ev) m.queue

  let cancel m id =
    match Hashtbl.find_opt m.events id with
    | Some ev when not ev.spent ->
        ev.spent <- true;
        m.live <- m.live - 1;
        m.cancelled <- m.cancelled + 1
    | Some _ | None -> ()

  let rec step m =
    match head m with
    | None -> false
    | Some ev when ev.spent ->
        remove m ev;
        step m
    | Some ev ->
        remove m ev;
        ev.spent <- true;
        m.live <- m.live - 1;
        m.clock <- ev.time;
        m.fired <- m.fired + 1;
        m.log <- (ev.time, ev.id) :: m.log;
        if ev.spawn then schedule_at m ~time:m.clock false;
        true

  let rec run m ~until =
    match head m with
    | Some ev when ev.spent ->
        remove m ev;
        run m ~until
    | Some ev when ev.time <= until ->
        ignore (step m);
        run m ~until
    | Some _ | None -> if m.clock < until then m.clock <- until
end

type op = Sched of int * bool | Sched_at of int * bool | Cancel of int | Step | Run of int

let delays = [| 0.0; 0.5; 1.0; 1.0; 2.0; -1.0 |]
let times = [| 0.0; 1.0; 2.5; 4.0 |]

let pp_op = function
  | Sched (d, s) -> Printf.sprintf "Sched(%g,%b)" delays.(d) s
  | Sched_at (t, s) -> Printf.sprintf "Sched_at(%g,%b)" times.(t) s
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Step -> "Step"
  | Run u -> Printf.sprintf "Run(+%g)" delays.(u)

let arb_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map2 (fun d s -> Sched (d, s)) (int_bound (Array.length delays - 1)) bool);
        (2, map2 (fun t s -> Sched_at (t, s)) (int_bound (Array.length times - 1)) bool);
        (3, map (fun k -> Cancel k) (int_bound 1000));
        (2, return Step);
        (1, map (fun u -> Run u) (int_bound (Array.length delays - 1)));
      ]
  in
  QCheck.make ~print:QCheck.Print.(list pp_op) (list_size (int_bound 80) op)

let qcheck_engine_model =
  QCheck.Test.make ~name:"engine matches the sorted-list model" ~count:300 arb_ops (fun ops ->
      let e = Engine.create () and m = Model.create () in
      let handles = Hashtbl.create 16 and next_id = ref 0 and log = ref [] in
      (* an event logs (time, id) when it fires; a spawning one schedules
         a plain child at delay 0 *)
      let rec schedule how spawn =
        let id = !next_id in
        incr next_id;
        let fn () =
          log := (Engine.now e, id) :: !log;
          if spawn then schedule (`Delay 0.0) false
        in
        Hashtbl.replace handles id
          (match how with
          | `Delay delay -> Engine.schedule e ~delay fn
          | `At time -> Engine.schedule_at e ~time fn)
      in
      let agree = ref true in
      List.iter
        (fun op ->
          (match op with
          | Sched (d, s) ->
              schedule (`Delay delays.(d)) s;
              Model.schedule_at m ~time:(m.Model.clock +. Float.max 0.0 delays.(d)) s
          | Sched_at (t, s) ->
              schedule (`At times.(t)) s;
              Model.schedule_at m ~time:times.(t) s
          | Cancel k ->
              if !next_id > 0 then begin
                Engine.cancel e (Hashtbl.find handles (k mod !next_id));
                Model.cancel m (k mod !next_id)
              end
          | Step ->
              let a = Engine.step e and b = Model.step m in
              agree := !agree && a = b
          | Run u ->
              Engine.run e ~until:(Engine.now e +. delays.(u));
              Model.run m ~until:(m.Model.clock +. delays.(u)));
          agree := !agree && Engine.now e = m.Model.clock)
        ops;
      Engine.run_all e;
      while Model.step m do
        ()
      done;
      let s = Engine.stats e in
      !agree
      && List.rev !log = List.rev m.Model.log
      && s.Engine.scheduled = m.Model.scheduled
      && s.Engine.fired = m.Model.fired
      && s.Engine.cancelled = m.Model.cancelled
      && s.Engine.pending = m.Model.live
      && s.Engine.heap_hwm = m.Model.heap_hwm
      && s.Engine.live_hwm = m.Model.live_hwm)

let suite =
  [
    ( "engine",
      [
        Alcotest.test_case "time order" `Quick test_time_order;
        Alcotest.test_case "FIFO at same time" `Quick test_fifo_same_time;
        Alcotest.test_case "cancel" `Quick test_cancel;
        Alcotest.test_case "run until" `Quick test_run_until;
        Alcotest.test_case "schedule inside callback" `Quick test_schedule_inside_callback;
        Alcotest.test_case "schedule_at in the past" `Quick test_schedule_at_past;
        Alcotest.test_case "negative delay" `Quick test_negative_delay;
        Alcotest.test_case "pending count" `Quick test_pending_count;
        Alcotest.test_case "max events" `Quick test_max_events;
        Alcotest.test_case "step" `Quick test_step;
        Alcotest.test_case "NaN delay and time rejected" `Quick test_nan_rejected;
        QCheck_alcotest.to_alcotest qcheck_engine_model;
      ] );
  ]
