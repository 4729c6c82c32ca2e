module Tuning = Mspastry.Tuning
module Config = Mspastry.Config
module Nodeid = Pastry.Nodeid
module Peer = Pastry.Peer
module Leafset = Pastry.Leafset

let cfg = Config.default

let test_pf_limits () =
  Alcotest.(check (float 0.0)) "mu=0" 0.0 (Tuning.pf ~t_detect:100.0 ~mu:0.0);
  Alcotest.(check (float 0.0)) "t=0" 0.0 (Tuning.pf ~t_detect:0.0 ~mu:0.1);
  Alcotest.(check bool) "large x -> 1" true (Tuning.pf ~t_detect:1e9 ~mu:1.0 > 0.999);
  (* small x: pf ~ x/2 *)
  let p = Tuning.pf ~t_detect:1.0 ~mu:1e-6 in
  Alcotest.(check bool) "small x linear" true (Float.abs (p -. 5e-7) < 1e-8)

let test_pf_monotone () =
  let prev = ref 0.0 in
  List.iter
    (fun t ->
      let p = Tuning.pf ~t_detect:t ~mu:1e-3 in
      Alcotest.(check bool) "monotone in T" true (p >= !prev);
      prev := p)
    [ 1.0; 10.0; 100.0; 1000.0; 10000.0 ]

let test_expected_hops () =
  (* b=4, N=65536: 15/16 * log16(65536) = 15/16*4 = 3.75 *)
  Alcotest.(check (float 1e-6)) "known value" 3.75 (Tuning.expected_hops ~b:4 ~n:65536.0);
  Alcotest.(check bool) "at least 1" true (Tuning.expected_hops ~b:4 ~n:2.0 >= 1.0)

let test_raw_loss_monotone_in_trt () =
  let prev = ref 0.0 in
  List.iter
    (fun trt ->
      let lr = Tuning.raw_loss_rate cfg ~trt ~n:1000.0 ~mu:1e-4 in
      Alcotest.(check bool) "monotone" true (lr >= !prev);
      prev := lr)
    [ 10.0; 30.0; 100.0; 300.0; 1000.0 ]

let test_solve_trt_hits_target () =
  let n = 1000.0 and mu = 1e-4 in
  let trt = Tuning.solve_trt cfg ~n ~mu in
  let achieved = Tuning.raw_loss_rate cfg ~trt ~n ~mu in
  Alcotest.(check bool) "achieves target" true
    (Float.abs (achieved -. cfg.Config.lr_target) < 0.005)

let test_solve_trt_floor () =
  (* catastrophic churn: even the floor misses the target -> floor *)
  let trt = Tuning.solve_trt cfg ~n:1000.0 ~mu:0.05 in
  Alcotest.(check (float 1e-6)) "floor" 9.0 trt

let test_solve_trt_cap () =
  (* almost no churn: max probing period suffices *)
  let trt = Tuning.solve_trt cfg ~n:1000.0 ~mu:1e-9 in
  Alcotest.(check (float 1e-6)) "cap" cfg.Config.t_rt_max trt

let leafset_of_n n =
  (* evenly spaced ring of n nodes; leaf set of node 0 *)
  let spacing = Nodeid.to_float Nodeid.max_value /. float_of_int n in
  let me = Peer.make (Nodeid.of_int 0) 0 in
  let ls = Leafset.create ~l:32 ~me in
  for k = 1 to n - 1 do
    (* of_int only goes to 2^62; place nodes by repeated addition *)
    ignore spacing;
    ignore k
  done;
  ls

let test_estimate_n () =
  (* build a ring with known spacing via add of evenly spaced ids *)
  let me = Peer.make (Nodeid.of_int 0) 0 in
  let ls = Leafset.create ~l:8 ~me in
  (* 2^128 / 256 spacing: ids k * 2^120 - use hex construction *)
  let id_at k =
    let hexbyte = Printf.sprintf "%02x" k in
    Nodeid.of_hex (hexbyte ^ String.concat "" (List.init 30 (fun _ -> "0")))
  in
  (* neighbours at 1..4 /256 and 252..255/256 of the ring *)
  List.iter (fun k -> ignore (Leafset.add ls (Peer.make (id_at k) k))) [ 1; 2; 3; 4; 252; 253; 254; 255 ];
  let n = Tuning.estimate_n ls in
  (* 9 nodes spanning 8/256 of the ring -> N ~ 288 *)
  Alcotest.(check bool) "density estimate"
    true
    (n > 200.0 && n < 400.0);
  ignore (leafset_of_n 4)

let test_estimate_n_empty () =
  let ls = Leafset.create ~l:8 ~me:(Peer.make (Nodeid.of_int 0) 0) in
  Alcotest.(check (float 0.0)) "singleton" 1.0 (Tuning.estimate_n ls)

let test_estimate_mu () =
  let t = Tuning.create cfg ~now:0.0 in
  Alcotest.(check (float 0.0)) "no failures" 0.0 (Tuning.estimate_mu t ~m:10 ~now:100.0);
  (* 5 failures among 10 nodes over 1000s -> mu = 5 / (10*1000) *)
  List.iter (fun ts -> Tuning.record_failure t ~now:ts) [ 200.; 400.; 600.; 800.; 1000. ];
  let mu = Tuning.estimate_mu t ~m:10 ~now:1000.0 in
  Alcotest.(check (float 1e-9)) "k/(M Tkf)" 5e-4 mu;
  Alcotest.(check int) "count" 5 (Tuning.failures_seen t)

let test_estimate_mu_zero_members () =
  let t = Tuning.create cfg ~now:0.0 in
  Tuning.record_failure t ~now:10.0;
  Alcotest.(check (float 0.0)) "m=0 safe" 0.0 (Tuning.estimate_mu t ~m:0 ~now:20.0)

let test_current_trt_median () =
  let t = Tuning.create cfg ~now:0.0 in
  let ls = Leafset.create ~l:8 ~me:(Peer.make (Nodeid.of_int 0) 0) in
  (* no local failures: local estimate = cap. Remote values pull the
     median down. *)
  List.iter (fun v -> Tuning.observe_remote t v) [ 50.0; 50.0; 50.0; 50.0; 50.0 ];
  let trt = Tuning.current_trt t ~local:(Tuning.local_trt t ~leafset:ls ~m:10 ~now:100.0) in
  Alcotest.(check (float 1e-6)) "median of remotes" 50.0 trt

let test_current_trt_bounds () =
  let t = Tuning.create cfg ~now:0.0 in
  let ls = Leafset.create ~l:8 ~me:(Peer.make (Nodeid.of_int 0) 0) in
  List.iter (fun v -> Tuning.observe_remote t v) [ 1.0; 1.0; 1.0 ];
  let trt = Tuning.current_trt t ~local:(Tuning.local_trt t ~leafset:ls ~m:10 ~now:100.0) in
  Alcotest.(check bool) "floor enforced" true (trt >= 9.0)

let test_observe_remote_ignores_garbage () =
  let t = Tuning.create cfg ~now:0.0 in
  Tuning.observe_remote t nan;
  Tuning.observe_remote t (-5.0);
  Tuning.observe_remote t infinity;
  let ls = Leafset.create ~l:8 ~me:(Peer.make (Nodeid.of_int 0) 0) in
  (* only the local cap remains *)
  let trt = Tuning.current_trt t ~local:(Tuning.local_trt t ~leafset:ls ~m:10 ~now:100.0) in
  Alcotest.(check (float 1e-6)) "unaffected" cfg.Config.t_rt_max trt

let test_current_trt_caps_at_max () =
  (* absurd remote values cannot push Trt past the configured cap *)
  let t = Tuning.create cfg ~now:0.0 in
  let ls = Leafset.create ~l:8 ~me:(Peer.make (Nodeid.of_int 0) 0) in
  List.iter (fun v -> Tuning.observe_remote t v) [ 1e6; 1e6; 1e6; 1e6; 1e6 ];
  let trt = Tuning.current_trt t ~local:(Tuning.local_trt t ~leafset:ls ~m:10 ~now:100.0) in
  Alcotest.(check (float 1e-6)) "capped at t_rt_max" cfg.Config.t_rt_max trt

let test_observe_remote_ring_converges () =
  (* the remote buffer keeps only the newest 32 samples: after 32 fresh
     observations the old regime is fully forgotten and the median
     converges to the new value *)
  let t = Tuning.create cfg ~now:0.0 in
  let ls = Leafset.create ~l:8 ~me:(Peer.make (Nodeid.of_int 0) 0) in
  for _ = 1 to 32 do
    Tuning.observe_remote t 200.0
  done;
  for _ = 1 to 32 do
    Tuning.observe_remote t 50.0
  done;
  let trt = Tuning.current_trt t ~local:(Tuning.local_trt t ~leafset:ls ~m:10 ~now:100.0) in
  Alcotest.(check (float 1e-6)) "old regime forgotten" 50.0 trt;
  (* halfway through the switch the median still reflects the mix *)
  let t2 = Tuning.create cfg ~now:0.0 in
  for _ = 1 to 32 do
    Tuning.observe_remote t2 200.0
  done;
  for _ = 1 to 8 do
    Tuning.observe_remote t2 50.0
  done;
  let trt2 = Tuning.current_trt t2 ~local:(Tuning.local_trt t2 ~leafset:ls ~m:10 ~now:100.0) in
  Alcotest.(check (float 1e-6)) "mixed regime keeps old median" 200.0 trt2

let qcheck_solve_in_bounds =
  QCheck.Test.make ~name:"solve_trt within [floor, cap]" ~count:200
    QCheck.(pair (float_range 2.0 100000.0) (float_range 1e-8 0.1))
    (fun (n, mu) ->
      let trt = Tuning.solve_trt cfg ~n ~mu in
      trt >= 9.0 -. 1e-9 && trt <= cfg.Config.t_rt_max +. 1e-9)

(* The solver and the median must reproduce the straightforward
   computations bit for bit: a rounding difference would change a node's
   probing period and with it every later event. *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let floor_of (cfg : Config.t) = float_of_int (cfg.max_probe_retries + 1) *. cfg.t_out

(* §4.1's raw loss rate, written out in full *)
let reference_loss (cfg : Config.t) ~trt ~n ~mu =
  let r = float_of_int (cfg.max_probe_retries + 1) in
  let h = Tuning.expected_hops ~b:cfg.b ~n in
  let p_last = Tuning.pf ~t_detect:(cfg.t_ls +. (r *. cfg.t_out)) ~mu in
  let p_rt = Tuning.pf ~t_detect:(trt +. (r *. cfg.t_out)) ~mu in
  1.0 -. ((1.0 -. p_last) *. ((1.0 -. p_rt) ** (h -. 1.0)))

(* bisection straight over [raw_loss_rate] *)
let reference_solve (cfg : Config.t) ~n ~mu =
  let loss trt = Tuning.raw_loss_rate cfg ~trt ~n ~mu in
  let lo = floor_of cfg and hi = cfg.t_rt_max in
  if loss lo >= cfg.lr_target then lo
  else if loss hi <= cfg.lr_target then hi
  else begin
    let lo = ref lo and hi = ref hi in
    for _ = 1 to 60 do
      let mid = (!lo +. !hi) /. 2.0 in
      if loss mid > cfg.lr_target then hi := mid else lo := mid
    done;
    !lo
  end

(* n log-uniform in [2, 1e5]; µ = 0, high enough to hit the floor, or
   log-uniform down to where the cap holds *)
let arb_n_mu =
  let open QCheck.Gen in
  let n = map (fun e -> 2.0 *. (10.0 ** e)) (float_range 0.0 (log10 5e4)) in
  let mu =
    frequency
      [
        (1, return 0.0);
        (1, float_range 0.01 0.1);
        (4, map (fun e -> 10.0 ** e) (float_range (-10.0) (-1.0)));
      ]
  in
  QCheck.make ~print:QCheck.Print.(pair float float) (pair n mu)

let qcheck_solve_matches_reference =
  QCheck.Test.make ~name:"solve_trt = bisection over raw_loss_rate, bit for bit" ~count:500
    arb_n_mu (fun (n, mu) ->
      let trt = Tuning.solve_trt cfg ~n ~mu in
      same_bits trt (reference_solve cfg ~n ~mu)
      && same_bits (Tuning.raw_loss_rate cfg ~trt ~n ~mu) (reference_loss cfg ~trt ~n ~mu))

(* observations with duplicates and garbage; up to 70 of them, so the
   32-slot ring is sometimes part full and sometimes wrapped *)
let arb_observations =
  let open QCheck.Gen in
  let v =
    frequency
      [
        (3, oneofl [ 9.0; 30.0; 30.0; 120.0; 600.0; 3600.0; 1e6 ]);
        (3, float_range 1.0 5000.0);
        (1, oneofl [ 0.0; -5.0; nan; infinity ]);
      ]
  in
  QCheck.make
    ~print:QCheck.Print.(pair (list float) float)
    (pair (list_size (int_bound 70) v) (float_range 9.0 3600.0))

let qcheck_current_trt_is_stats_median =
  QCheck.Test.make ~name:"current_trt = clamped Stats.median, bit for bit" ~count:500
    arb_observations (fun (obs, local) ->
      let t = Tuning.create cfg ~now:0.0 in
      List.iter (Tuning.observe_remote t) obs;
      let kept = List.filter (fun v -> v > 0.0 && Float.is_finite v) obs in
      let ring = List.filteri (fun i _ -> i >= List.length kept - 32) kept in
      let med = Repro_util.Stats.median (Array.of_list (ring @ [ local ])) in
      same_bits (Tuning.current_trt t ~local)
        (Float.max (floor_of cfg) (Float.min cfg.Config.t_rt_max med)))

let suite =
  [
    ( "tuning",
      [
        Alcotest.test_case "pf limits" `Quick test_pf_limits;
        Alcotest.test_case "pf monotone" `Quick test_pf_monotone;
        Alcotest.test_case "expected hops" `Quick test_expected_hops;
        Alcotest.test_case "raw loss monotone in Trt" `Quick test_raw_loss_monotone_in_trt;
        Alcotest.test_case "solve hits target" `Quick test_solve_trt_hits_target;
        Alcotest.test_case "solve floors under extreme churn" `Quick test_solve_trt_floor;
        Alcotest.test_case "solve caps under no churn" `Quick test_solve_trt_cap;
        Alcotest.test_case "estimate N from density" `Quick test_estimate_n;
        Alcotest.test_case "estimate N singleton" `Quick test_estimate_n_empty;
        Alcotest.test_case "estimate mu" `Quick test_estimate_mu;
        Alcotest.test_case "estimate mu zero members" `Quick test_estimate_mu_zero_members;
        Alcotest.test_case "median of remote values" `Quick test_current_trt_median;
        Alcotest.test_case "floor enforced" `Quick test_current_trt_bounds;
        Alcotest.test_case "garbage remotes ignored" `Quick test_observe_remote_ignores_garbage;
        Alcotest.test_case "caps at t_rt_max" `Quick test_current_trt_caps_at_max;
        Alcotest.test_case "remote ring buffer converges" `Quick
          test_observe_remote_ring_converges;
        QCheck_alcotest.to_alcotest qcheck_solve_in_bounds;
        QCheck_alcotest.to_alcotest qcheck_solve_matches_reference;
        QCheck_alcotest.to_alcotest qcheck_current_trt_is_stats_median;
      ] );
  ]
