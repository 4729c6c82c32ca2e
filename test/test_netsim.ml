module Engine = Simkit.Engine
module Net = Netsim.Net
module Rng = Repro_util.Rng
module Netfault = Repro_faults.Netfault
module Nodefault = Repro_faults.Nodefault
module Obs = Repro_obs

let make ?(delay = 0.01) ?(n = 8) () =
  let engine = Engine.create () in
  let topology = Topology.constant ~n_endpoints:n ~delay in
  let net = Net.create ~engine ~topology ~rng:(Rng.create 1) () in
  (engine, net)

let uniform_loss net rate =
  Net.set_faults net ~link:(Netfault.uniform ~rate) ~node:Nodefault.none

let test_delivery_with_delay () =
  let engine, net = make () in
  let got = ref [] in
  Net.register net ~addr:1 (fun ~src msg -> got := (src, msg, Engine.now engine) :: !got);
  Net.send net ~src:0 ~dst:1 "hello";
  Engine.run_all engine;
  match !got with
  | [ (src, msg, at) ] ->
      Alcotest.(check int) "src" 0 src;
      Alcotest.(check string) "payload" "hello" msg;
      Alcotest.(check (float 1e-9)) "propagation delay" 0.01 at
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_unregistered_dropped () =
  let engine, net = make () in
  Net.send net ~src:0 ~dst:5 "lost";
  Engine.run_all engine;
  Alcotest.(check int) "dropped" 1 (Net.n_dropped net);
  Alcotest.(check int) "sent" 1 (Net.n_sent net);
  Alcotest.(check int) "delivered" 0 (Net.n_delivered net)

let test_crash_after_send () =
  let engine, net = make () in
  let got = ref 0 in
  Net.register net ~addr:1 (fun ~src:_ _ -> incr got);
  Net.send net ~src:0 ~dst:1 "in flight";
  (* crash before the message arrives *)
  Net.unregister net ~addr:1;
  Engine.run_all engine;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "dropped" 1 (Net.n_dropped net);
  (* the in-flight drop is attributed to the dead destination, not loss *)
  let s = Net.stats net in
  Alcotest.(check int) "dropped_dead" 1 s.Net.dropped_dead;
  Alcotest.(check int) "dropped_loss" 0 s.Net.dropped_loss;
  Alcotest.(check int) "dropped_fault" 0 s.Net.dropped_fault

let test_loss_statistics () =
  let engine, net = make () in
  uniform_loss net 0.5;
  let got = ref 0 in
  Net.register net ~addr:1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 2000 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  Engine.run_all engine;
  Alcotest.(check bool) "about half lost" true (!got > 850 && !got < 1150);
  Alcotest.(check int) "all drops counted as loss" (2000 - !got)
    (Net.stats net).Net.dropped_loss

let test_on_send_tap () =
  let engine, net = make () in
  let taps = ref [] in
  Net.on_send net (fun ~time ~src ~dst msg -> taps := (time, src, dst, msg) :: !taps);
  Net.register net ~addr:2 (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:2 "a";
  Net.send net ~src:1 ~dst:7 "b";
  (* tap sees even undeliverable sends *)
  Engine.run_all engine;
  Alcotest.(check int) "tap count" 2 (List.length !taps)

let test_endpoint_mapping () =
  let engine = Engine.create () in
  let topology = Topology.constant ~n_endpoints:2 ~delay:0.5 in
  (* addresses 0,2 share endpoint 0; address 1 is endpoint 1 *)
  let net =
    Net.create ~endpoint_of:(fun a -> a mod 2) ~engine ~topology ~rng:(Rng.create 1) ()
  in
  Alcotest.(check (float 1e-9)) "cross endpoint" 0.5 (Net.delay net 0 1);
  Alcotest.(check bool) "same endpoint, distinct addr: small LAN delay" true
    (Net.delay net 0 2 > 0.0 && Net.delay net 0 2 < 0.01);
  Alcotest.(check (float 1e-9)) "self" 0.0 (Net.delay net 0 0)

(* ---------------------------------------------- capacity / queue model *)

let make_cap ?priority_of ~service_rate ~queue_limit () =
  let engine = Engine.create () in
  let topology = Topology.constant ~n_endpoints:8 ~delay:0.01 in
  let net =
    Net.create ?priority_of
      ~capacity:{ Net.service_rate; queue_limit }
      ~engine ~topology ~rng:(Rng.create 1) ()
  in
  (engine, net)

let test_capacity_queueing_delay () =
  (* service 0.1 s/message: three back-to-back messages to the same node
     serialise — delivery at arrival + k*service for the k-th in line *)
  let engine, net = make_cap ~service_rate:10.0 ~queue_limit:16 () in
  let got = ref [] in
  Net.register net ~addr:1 (fun ~src:_ _ -> got := Engine.now engine :: !got);
  for _ = 1 to 3 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  Engine.run_all engine;
  Alcotest.(check (list (float 1e-9))) "serialised deliveries"
    [ 0.11; 0.21; 0.31 ] (List.rev !got)

let test_capacity_overflow_drop () =
  let engine, net = make_cap ~service_rate:10.0 ~queue_limit:2 () in
  let got = ref 0 in
  Net.register net ~addr:1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 5 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  Engine.run_all engine;
  Alcotest.(check int) "first two queued" 2 !got;
  let s = Net.stats net in
  Alcotest.(check int) "rest dropped as congestion" 3 s.Net.dropped_congestion;
  Alcotest.(check int) "n_dropped includes congestion" 3 (Net.n_dropped net);
  Alcotest.(check int) "no other drop cause" 0
    (s.Net.dropped_loss + s.Net.dropped_dead + s.Net.dropped_fault + s.Net.dropped_node)

let test_capacity_priority () =
  (* two low-priority messages fill the line; a later high-priority one
     overtakes them (waits only behind the high band) *)
  let engine, net =
    make_cap
      ~priority_of:(fun m -> if m = "hi" then 1 else 0)
      ~service_rate:10.0 ~queue_limit:16 ()
  in
  let got = ref [] in
  Net.register net ~addr:1 (fun ~src:_ msg -> got := (msg, Engine.now engine) :: !got);
  Net.send net ~src:0 ~dst:1 "lo1";
  Net.send net ~src:0 ~dst:1 "lo2";
  Net.send net ~src:0 ~dst:1 "hi";
  Net.send net ~src:0 ~dst:1 "lo3";
  Engine.run_all engine;
  let order = List.rev_map fst !got in
  Alcotest.(check (list string)) "high overtakes queued low"
    [ "lo1"; "hi"; "lo2"; "lo3" ] order;
  let at_of m =
    match List.assoc_opt m (List.rev !got) with
    | Some at -> at
    | None -> Alcotest.failf "%s lost" m
  in
  Alcotest.(check (float 1e-9)) "high unqueued" 0.11 (at_of "hi");
  (* lo2 was committed before the high arrival and keeps its slot; the
     high insertion pushes back only low work enqueued after it *)
  Alcotest.(check (float 1e-9)) "committed low keeps slot" 0.21 (at_of "lo2");
  Alcotest.(check (float 1e-9)) "later low pushed back" 0.41 (at_of "lo3")

let test_capacity_occupancy_and_tap () =
  let engine, net = make_cap ~service_rate:10.0 ~queue_limit:16 () in
  let taps = ref [] in
  Net.on_queue net (fun ~addr ~cls:_ ~delay -> taps := (addr, delay) :: !taps);
  Net.register net ~addr:1 (fun ~src:_ _ -> ());
  for _ = 1 to 3 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  (* backlog at t=0: three unserved messages, 0.31 s of work *)
  Alcotest.(check int) "occupancy while backlogged" 3 (Net.queue_occupancy net ~addr:1);
  Alcotest.(check int) "untouched node empty" 0 (Net.queue_occupancy net ~addr:5);
  Alcotest.(check (list (float 1e-9))) "tap reports wait + service"
    [ 0.1; 0.2; 0.3 ]
    (List.rev_map snd !taps |> List.map (fun d -> Float.round (d *. 1e9) /. 1e9));
  List.iter (fun (a, _) -> Alcotest.(check int) "tap addr" 1 a) !taps;
  Engine.run_all engine;
  Alcotest.(check int) "drained" 0 (Net.queue_occupancy net ~addr:1)

let test_capacity_default_off () =
  (* no capacity configured: no queue samples, no congestion drops, and
     the accessor reports empty *)
  let engine, net = make () in
  let taps = ref 0 in
  Net.on_queue net (fun ~addr:_ ~cls:_ ~delay:_ -> incr taps);
  Net.register net ~addr:1 (fun ~src:_ _ -> ());
  for _ = 1 to 100 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  Engine.run_all engine;
  Alcotest.(check int) "no taps" 0 !taps;
  Alcotest.(check int) "no congestion drops" 0 (Net.stats net).Net.dropped_congestion;
  Alcotest.(check int) "occupancy zero" 0 (Net.queue_occupancy net ~addr:1)

let test_capacity_validation () =
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Net.capacity: service_rate must be > 0") (fun () ->
      ignore (make_cap ~service_rate:0.0 ~queue_limit:4 ()));
  Alcotest.check_raises "empty queue"
    (Invalid_argument "Net.capacity: queue_limit must be >= 1") (fun () ->
      ignore (make_cap ~service_rate:1.0 ~queue_limit:0 ()));
  Alcotest.check_raises "NaN rate"
    (Invalid_argument "Net.capacity: service_rate must be > 0") (fun () ->
      ignore (make_cap ~service_rate:Float.nan ~queue_limit:4 ()))

(* every stage of the pipeline at once: a uniform base composed with a
   blackhole overlay (0 -> 3), a fail-silent sender (1), a flapping
   receiver (2, down whenever a message sent on an even second lands), a
   bounded queue that a same-instant burst overflows, and a dead
   destination (5). Each drop must be counted and traced under the
   stage that made it; in particular a uniform drop while the overlay is
   active is loss, not fault. The uniform stage draws once per send
   and is consulted first, so a twin RNG predicts which sends it takes *)
let test_pipeline_drop_attribution () =
  let rate = 0.25 and seed = 5 in
  let engine = Engine.create () in
  let topology = Topology.constant ~n_endpoints:8 ~delay:0.01 in
  let trace = Obs.Trace.create (Obs.Sink.memory ~capacity:10_000) in
  let net =
    Net.create ~trace
      ~capacity:{ Net.service_rate = 10.0; queue_limit = 2 }
      ~engine ~topology ~rng:(Rng.create seed) ()
  in
  Net.set_faults net
    ~link:
      (Netfault.compose
         [ Netfault.uniform ~rate; Netfault.blackhole ~links:[ (0, 3) ] () ])
    ~node:
      (Nodefault.compose
         [
           Nodefault.fail_silent ~addrs:[ 1 ] ();
           Nodefault.flapping ~period:2.0 ~duty:0.5 ~addrs:[ 2 ] ();
         ]);
  let delivered = ref 0 in
  List.iter
    (fun a -> Net.register net ~addr:a (fun ~src:_ _ -> incr delivered))
    [ 0; 1; 2; 3; 4 ];
  let twin = Rng.create seed in
  let expect = Hashtbl.create 8 in
  let bump (r : Obs.Event.drop_reason option) =
    Hashtbl.replace expect r (1 + Option.value ~default:0 (Hashtbl.find_opt expect r))
  in
  let count r = Option.value ~default:0 (Hashtbl.find_opt expect r) in
  (* one round per simulated second; queues drain between rounds *)
  for round = 0 to 39 do
    ignore
      (Engine.schedule_at engine ~time:(float_of_int round) (fun () ->
           let accepted_by_4 = ref 0 in
           let send ~src ~dst =
             Net.send net ~src ~dst "m";
             bump
               (if Rng.float twin 1.0 < rate then Some Obs.Event.Loss
                else if (src, dst) = (0, 3) then Some Obs.Event.Faulted
                else if src = 1 then Some Obs.Event.Node_fault
                else if dst = 4 && !accepted_by_4 = 2 then Some Obs.Event.Congested
                else begin
                  if dst = 4 then incr accepted_by_4;
                  if dst = 2 && round mod 2 = 0 then Some Obs.Event.Node_fault
                  else if dst = 5 then Some Obs.Event.Dead_destination
                  else None
                end)
           in
           send ~src:0 ~dst:3;
           send ~src:1 ~dst:0;
           send ~src:0 ~dst:2;
           send ~src:0 ~dst:5;
           for _ = 1 to 4 do
             send ~src:0 ~dst:4
           done))
  done;
  Engine.run_all engine;
  let s = Net.stats net in
  let drops_traced r =
    List.length
      (List.filter
         (fun (e : Obs.Event.t) ->
           match e.Obs.Event.body with
           | Obs.Event.Drop { reason; _ } -> reason = r
           | _ -> false)
         (Obs.Trace.events trace))
  in
  List.iter
    (fun (name, r, counted) ->
      Alcotest.(check bool) (name ^ " exercised") true (count (Some r) > 0);
      Alcotest.(check int) (name ^ " counter") (count (Some r)) counted;
      Alcotest.(check int) (name ^ " traced") counted (drops_traced r))
    [
      ("loss", Obs.Event.Loss, s.Net.dropped_loss);
      ("fault", Obs.Event.Faulted, s.Net.dropped_fault);
      ("node", Obs.Event.Node_fault, s.Net.dropped_node);
      ("congestion", Obs.Event.Congested, s.Net.dropped_congestion);
      ("dead", Obs.Event.Dead_destination, s.Net.dropped_dead);
    ];
  Alcotest.(check int) "delivered" (count None) s.Net.delivered;
  Alcotest.(check int) "handlers ran" s.Net.delivered !delivered;
  Alcotest.(check int) "sent = delivered + dropped" s.Net.sent
    (s.Net.delivered + s.Net.dropped_loss + s.Net.dropped_fault
   + s.Net.dropped_node + s.Net.dropped_congestion + s.Net.dropped_dead)

(* every send is accounted for exactly once, whatever mix of loss,
   fault models, node faults, congestion and dead destinations it met *)
let qcheck_stats_conservation =
  QCheck.Test.make ~name:"netsim conserves sent = delivered + drops" ~count:60
    QCheck.(pair small_nat (int_bound 3))
    (fun (seed, scenario) ->
      let engine = Engine.create () in
      let topology = Topology.constant ~n_endpoints:8 ~delay:0.01 in
      let capacity =
        if scenario = 3 then Some { Net.service_rate = 20.0; queue_limit = 3 }
        else None
      in
      let net =
        Net.create ?capacity ~engine ~topology ~rng:(Rng.create (seed + 1)) ()
      in
      if scenario = 0 then uniform_loss net 0.3;
      if scenario = 1 then
        Net.set_faults net
          ~link:(Netfault.blackhole ~links:[ (0, 1); (2, 3) ] ())
          ~node:Nodefault.none;
      if scenario = 2 then
        Net.set_faults net ~link:Netfault.none
          ~node:(Nodefault.fail_silent ~addrs:[ 1; 2 ] ());
      let rng = Rng.create seed in
      (* register only half the addresses: dead destinations included *)
      for a = 0 to 3 do
        Net.register net ~addr:a (fun ~src:_ _ -> ())
      done;
      let n_msgs = 200 in
      for _ = 1 to n_msgs do
        let src = Rng.int rng 8 and dst = Rng.int rng 8 in
        ignore (Simkit.Engine.schedule engine ~delay:(Rng.float rng 2.0) (fun () ->
            Net.send net ~src ~dst "m"))
      done;
      (* crash one node mid-run so in-flight messages hit a dead handler *)
      ignore (Simkit.Engine.schedule engine ~delay:1.0 (fun () ->
          Net.unregister net ~addr:3));
      Engine.run_all engine;
      let s = Net.stats net in
      let drops =
        s.Net.dropped_loss + s.Net.dropped_dead + s.Net.dropped_fault
        + s.Net.dropped_node + s.Net.dropped_congestion
      in
      s.Net.sent = n_msgs
      && drops = Net.n_dropped net
      && s.Net.sent = s.Net.delivered + drops)

let test_handler_replacement () =
  let engine, net = make () in
  let a = ref 0 and b = ref 0 in
  Net.register net ~addr:1 (fun ~src:_ _ -> incr a);
  Net.register net ~addr:1 (fun ~src:_ _ -> incr b);
  Net.send net ~src:0 ~dst:1 "x";
  Engine.run_all engine;
  Alcotest.(check int) "old handler silent" 0 !a;
  Alcotest.(check int) "new handler fired" 1 !b

let suite =
  [
    ( "netsim",
      [
        Alcotest.test_case "delivery with delay" `Quick test_delivery_with_delay;
        Alcotest.test_case "unregistered dropped" `Quick test_unregistered_dropped;
        Alcotest.test_case "crash drops in-flight" `Quick test_crash_after_send;
        Alcotest.test_case "loss statistics" `Quick test_loss_statistics;
        Alcotest.test_case "on_send tap" `Quick test_on_send_tap;
        Alcotest.test_case "endpoint mapping" `Quick test_endpoint_mapping;
        Alcotest.test_case "handler replacement" `Quick test_handler_replacement;
        Alcotest.test_case "capacity: queueing delay" `Quick
          test_capacity_queueing_delay;
        Alcotest.test_case "capacity: overflow drops" `Quick
          test_capacity_overflow_drop;
        Alcotest.test_case "capacity: priority bands" `Quick test_capacity_priority;
        Alcotest.test_case "capacity: occupancy and taps" `Quick
          test_capacity_occupancy_and_tap;
        Alcotest.test_case "capacity: default off" `Quick test_capacity_default_off;
        Alcotest.test_case "capacity: validation" `Quick test_capacity_validation;
        Alcotest.test_case "pipeline attributes every drop" `Quick
          test_pipeline_drop_attribution;
        QCheck_alcotest.to_alcotest qcheck_stats_conservation;
      ] );
  ]
