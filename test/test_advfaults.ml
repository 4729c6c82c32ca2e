(* The adversarial fault axis (DESIGN.md §10): Advfault model semantics
   (behaviour algebra, compromise sets, compose, the transit-lookup
   decision against a brute-force model), Schedule adversary /
   sybil-flood constructors and their validation (including the
   timestamp checks shared by every constructor), the behaviours run
   through a scripted node's forward upcall (misrouting, dropping, the
   parity split between them, origin exemption, redirect acking and its
   honest re-route), the hardening that catches them (recipient-side
   progress checking, gossip verification challenges, the self-forgery
   rule), the harness's poisoning (forged volleys and forged-identity
   sustain, seen through a network tap), and Live-level ground truth:
   the liveness detector stays green on Byzantine nodes while progress
   checking convicts them, the eclipse audit sees poisoning land in the
   baseline and die under verification, sybil floods are deferred by the
   per-arc admission filter, and the whole axis is bit-deterministic. *)

module Advfault = Repro_faults.Advfault
module Schedule = Repro_faults.Schedule
module Engine = Simkit.Engine
module Net = Netsim.Net
module Node = Mspastry.Node
module M = Mspastry.Message
module Config = Mspastry.Config
module Nodeid = Pastry.Nodeid
module Peer = Pastry.Peer
module Sim = Harness.Sim
module Live = Sim.Live
module Collector = Overlay_metrics.Collector
module Rng = Repro_util.Rng

(* ------------------------------------------------------- model semantics *)

let test_advfault_model () =
  let b = { Advfault.misroute = true; drop = false; poison = true } in
  Alcotest.(check string) "behaviour name" "misroute+poison" (Advfault.behavior_name b);
  Alcotest.(check string) "honest name" "honest" (Advfault.behavior_name Advfault.no_behavior);
  let t = Advfault.compromise b ~addrs:[ 3; 7 ] () in
  Alcotest.(check int) "two compromised" 2 (Advfault.compromised t);
  Alcotest.(check bool) "addr 3 compromised" true (Advfault.behavior_of t ~addr:3 = Some b);
  Alcotest.(check bool) "bystander honest" true (Advfault.behavior_of t ~addr:4 = None);
  Alcotest.(check int) "none compromises nobody" 0 (Advfault.compromised Advfault.none);
  Alcotest.check_raises "honest behaviour rejected"
    (Invalid_argument "Advfault.compromise: behavior") (fun () ->
      ignore (Advfault.compromise Advfault.no_behavior ~addrs:[ 1 ] ()))

let test_advfault_compose_merges_flags () =
  let c =
    Advfault.compose
      [
        Advfault.compromise { Advfault.no_behavior with misroute = true } ~addrs:[ 1; 2 ] ();
        Advfault.compromise { Advfault.no_behavior with poison = true } ~addrs:[ 2; 3 ] ();
      ]
  in
  Alcotest.(check int) "union of addresses" 3 (Advfault.compromised c);
  Alcotest.(check bool) "flags merge on overlap" true
    (Advfault.behavior_of c ~addr:2
    = Some { Advfault.misroute = true; drop = false; poison = true });
  Alcotest.(check bool) "non-overlap keeps own flags" true
    (Advfault.behavior_of c ~addr:1
    = Some { Advfault.misroute = true; drop = false; poison = false });
  let seen = ref 0 in
  Advfault.iter c (fun _ _ -> incr seen);
  Alcotest.(check int) "iter visits each address once" 3 !seen

(* the compromise set is indexed by address: a negative one is refused,
   addresses outside it are honest, and iteration runs in address order *)
let test_advfault_addresses () =
  let b = { Advfault.no_behavior with drop = true } in
  Alcotest.check_raises "negative address rejected"
    (Invalid_argument "Advfault.compromise: address") (fun () ->
      ignore (Advfault.compromise b ~addrs:[ 2; -1 ] ()));
  let t = Advfault.compromise b ~addrs:[ 9; 0; 4; 9 ] () in
  Alcotest.(check int) "duplicates count once" 3 (Advfault.compromised t);
  Alcotest.(check bool) "past the largest address" true (Advfault.behavior_of t ~addr:10 = None);
  Alcotest.(check bool) "negative lookup" true (Advfault.behavior_of t ~addr:(-1) = None);
  let order = ref [] in
  Advfault.iter
    (Advfault.compose [ t; Advfault.compromise { b with poison = true } ~addrs:[ 2 ] () ])
    (fun addr _ -> order := addr :: !order);
  Alcotest.(check (list int)) "address order" [ 0; 2; 4; 9 ] (List.rev !order)

(* the transit-lookup decision against a direct reading of its contract:
   odd sequence numbers drop when both flags are set; a misrouter sends
   hop [h] to the ((h mod k) + 1)-th farthest of its members, k the
   smaller of 4 and their number, below 64 hops only *)
let test_on_lookup_model () =
  let rng = Rng.create 17 in
  let flag_sets =
    List.concat_map
      (fun misroute ->
        List.concat_map
          (fun drop ->
            List.map (fun poison -> { Advfault.misroute; drop; poison }) [ false; true ])
          [ false; true ])
      [ false; true ]
  in
  for _ = 1 to 300 do
    let members =
      List.init (Rng.int rng 11) (fun i -> Peer.make (Nodeid.random rng) (100 + i))
    in
    let key = Nodeid.random rng and seq = Rng.int rng 1000 in
    (* the k-th farthest member: the one exactly k - 1 members outrank,
       ties broken by list order *)
    let farthest k =
      let dist (p : Peer.t) = Nodeid.ring_dist key p.Peer.id in
      let indexed = List.mapi (fun i p -> (i, p)) members in
      List.find
        (fun (i, p) ->
          List.length
            (List.filter
               (fun (j, q) ->
                 let c = Nodeid.compare (dist q) (dist p) in
                 c > 0 || (c = 0 && j < i))
               indexed)
          = k - 1)
        indexed
      |> snd
    in
    List.iter
      (fun hops ->
        List.iter
          (fun (b : Advfault.behavior) ->
            let expected =
              if b.drop && ((not b.misroute) || seq mod 2 = 1) then `Drop
              else if b.misroute && hops < 64 && members <> [] then
                `Misroute (farthest ((hops mod min 4 (List.length members)) + 1))
              else `Pass
            in
            let got =
              match Advfault.on_lookup b ~members ~key ~seq ~hops with
              | Advfault.Pass -> `Pass
              | Advfault.Drop -> `Drop
              | Advfault.Misroute p -> `Misroute p
            in
            if got <> expected then
              Alcotest.failf "%s, %d members, seq %d, hops %d: wrong decision"
                (Advfault.behavior_name b) (List.length members) seq hops)
          flag_sets)
      [ 0; 1; 2; 3; 5; Rng.int rng 63; 63; 64; 65 ]
  done

(* --------------------------------------------------------------- schedule *)

let misdrop = { Advfault.misroute = true; drop = true; poison = false }

let test_schedule_adversary_constructors () =
  Alcotest.(check string) "adversary label" "adversary misroute+drop 20% for 600s"
    (Schedule.adversary ~time:10.0 ~duration:600.0 ~fraction:0.2 misdrop).Schedule.label;
  Alcotest.(check string) "sybil label" "sybil-flood 40 joiners over 120s living 300s"
    (Schedule.sybil_flood ~time:10.0 ~over:120.0 ~lifetime:300.0 40).Schedule.label;
  Alcotest.check_raises "bad fraction" (Invalid_argument "Schedule.adversary: fraction")
    (fun () -> ignore (Schedule.adversary ~time:0.0 ~fraction:1.5 misdrop));
  Alcotest.check_raises "honest behaviour" (Invalid_argument "Schedule.adversary: behavior")
    (fun () ->
      ignore (Schedule.adversary ~time:0.0 ~fraction:0.1 Advfault.no_behavior));
  Alcotest.check_raises "bad duration" (Invalid_argument "Schedule.adversary: duration")
    (fun () -> ignore (Schedule.adversary ~time:0.0 ~duration:0.0 ~fraction:0.1 misdrop));
  Alcotest.check_raises "no joiners" (Invalid_argument "Schedule.sybil_flood: joiners")
    (fun () -> ignore (Schedule.sybil_flood ~time:0.0 ~over:10.0 ~lifetime:60.0 0));
  Alcotest.check_raises "negative spread" (Invalid_argument "Schedule.sybil_flood: over")
    (fun () -> ignore (Schedule.sybil_flood ~time:0.0 ~over:(-1.0) ~lifetime:60.0 4));
  Alcotest.check_raises "dead on arrival" (Invalid_argument "Schedule.sybil_flood: lifetime")
    (fun () -> ignore (Schedule.sybil_flood ~time:0.0 ~over:10.0 ~lifetime:0.0 4))

let test_schedule_timestamp_validation () =
  (* every constructor funnels through the same timestamp check: a NaN
     or negative injection time would silently misorder the event heap *)
  Alcotest.check_raises "NaN time" (Invalid_argument "Schedule.mk: time") (fun () ->
      ignore (Schedule.adversary ~time:Float.nan ~fraction:0.1 misdrop));
  Alcotest.check_raises "negative time" (Invalid_argument "Schedule.mk: time") (fun () ->
      ignore (Schedule.sybil_flood ~time:(-1.0) ~over:10.0 ~lifetime:60.0 4));
  Alcotest.check_raises "heal too" (Invalid_argument "Schedule.mk: time") (fun () ->
      ignore (Schedule.heal Float.nan))

(* ------------------------------------------------------- scripted node *)

type script = {
  engine : Engine.t;
  mutable sent : (int * M.t) list;
  mutable delivered : M.lookup list;
  mutable convicted : int list; (* progress-check convictions, newest first *)
  mutable rejected : int list; (* gossip-verification rejections, newest first *)
}

let make_script () =
  { engine = Engine.create (); sent = []; delivered = []; convicted = []; rejected = [] }

let env_of ?(forward = fun ~prev:_ _ -> Node.Continue) s =
  {
    Node.now = (fun () -> Engine.now s.engine);
    send = (fun ~dst msg -> s.sent <- (dst, msg) :: s.sent);
    schedule = (fun ~delay fn -> Engine.schedule s.engine ~delay fn);
    cancel = (fun ev -> Engine.cancel s.engine ev);
    rng = Rng.create 42;
    deliver = (fun l -> s.delivered <- l :: s.delivered);
    forward;
    on_active = (fun () -> ());
    on_join_failed = (fun () -> ());
    on_suspicion = (fun ~target:_ -> ());
    on_progress_suspect = (fun ~target -> s.convicted <- target :: s.convicted);
    on_poison_reject = (fun ~target -> s.rejected <- target :: s.rejected);
    load = (fun () -> 0);
    trace = Repro_obs.Trace.disabled;
  }

let hexid prefix =
  Nodeid.of_hex
    (prefix ^ String.concat "" (List.init (32 - String.length prefix) (fun _ -> "0")))

let sent_to s addr =
  List.filter_map (fun (d, m) -> if d = addr then Some m else None) (List.rev s.sent)

let cfg = Config.default
let me_id = hexid "a0"

let ls_probe ?(leaf = []) ?(target = me_id) () =
  M.Ls_probe { leaf; failed = []; trt = 30.0; target }

(* an active node [a0]@0 with leaf members [b0]@1 and [c0]@2 *)
let active_trio ?(cfg = cfg) ?forward () =
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of ?forward s) ~id:me_id ~addr:0 in
  Node.bootstrap node;
  let b = Peer.make (hexid "b0") 1 and c = Peer.make (hexid "c0") 2 in
  Node.handle node ~src:1 (M.make ~sender:b (ls_probe ()));
  Node.handle node ~src:2 (M.make ~sender:c (ls_probe ()));
  s.sent <- [];
  (s, node, b, c)

let lookups_sent s =
  List.filter_map
    (fun (dst, m) -> match m.M.payload with M.Lookup l -> Some (dst, l) | _ -> None)
    (List.rev s.sent)

let incoming ?(seq = 2) ?(hops = 0) ?(reliable = false) ~origin key =
  M.Lookup { M.key; seq; origin; hops; retx = false; reliable }

(* [active_trio] compromised with [b], its forward upcall running the
   behaviour as the harness does: on lookups from another hop that the
   node did not originate *)
let compromised_trio b =
  let node = ref None in
  let forward ~prev (l : M.lookup) =
    match (prev, !node) with
    | Some _, Some n when not (Nodeid.equal l.M.origin.Peer.id me_id) -> (
        match
          Advfault.on_lookup b
            ~members:(Pastry.Leafset.members (Node.leafset n))
            ~key:l.M.key ~seq:l.M.seq ~hops:l.M.hops
        with
        | Advfault.Pass -> Node.Continue
        | Advfault.Drop -> Node.Absorb
        | Advfault.Misroute p -> Node.Redirect p)
    | _ -> Node.Continue
  in
  let s, n, b, c = active_trio ~forward () in
  node := Some n;
  (s, n, b, c)

let test_misroute_forwards_wrong_but_alive () =
  let s, node, b, _c =
    compromised_trio { Advfault.misroute = true; drop = false; poison = false }
  in
  (* key is exactly [c]: the honest next hop is [c]@2. The misrouter
     instead picks among the leaf members farthest from the key *)
  Node.handle node ~src:1 (M.make ~sender:b (incoming ~origin:b (hexid "c0")));
  (match lookups_sent s with
  | [ (dst, l) ] ->
      Alcotest.(check int) "forwarded away from the key" 1 dst;
      Alcotest.(check int) "hop count still advances" 1 l.M.hops
  | other -> Alcotest.failf "expected one forwarded lookup, got %d" (List.length other));
  Alcotest.(check int) "nothing delivered locally" 0 (List.length s.delivered)

let test_drop_eats_lookup_but_acks_hop () =
  let s, node, b, _c =
    compromised_trio { Advfault.misroute = false; drop = true; poison = false }
  in
  Node.handle node ~src:1 (M.make ~hop:41 ~sender:b (incoming ~origin:b (hexid "c0")));
  Alcotest.(check int) "lookup consumed" 0 (List.length (lookups_sent s));
  Alcotest.(check int) "not delivered" 0 (List.length s.delivered);
  (* the per-hop ack still goes out: the previous hop sees a healthy
     forwarder, so per-hop retransmission never fires *)
  let acks =
    List.filter
      (fun m -> match m.M.payload with M.Hop_ack { hop_id = 41 } -> true | _ -> false)
      (sent_to s 1)
  in
  Alcotest.(check int) "hop acked anyway" 1 (List.length acks)

let test_combined_behavior_splits_by_parity () =
  let s, node, b, _c = compromised_trio misdrop in
  Node.handle node ~src:1 (M.make ~sender:b (incoming ~seq:2 ~origin:b (hexid "c0")));
  Alcotest.(check int) "even seq misrouted" 1 (List.length (lookups_sent s));
  s.sent <- [];
  Node.handle node ~src:1 (M.make ~sender:b (incoming ~seq:3 ~origin:b (hexid "c0")));
  Alcotest.(check int) "odd seq dropped" 0 (List.length (lookups_sent s))

let test_adversary_spares_own_lookups () =
  let s, node, b, _c = compromised_trio misdrop in
  (* a lookup the compromised node itself originated routes honestly —
     sabotaging your own traffic would unmask you to yourself — both at
     the origin and when it comes back round through another hop *)
  let self = Peer.make me_id 0 in
  Node.handle node ~src:0 (M.make ~sender:self (incoming ~origin:self (hexid "c0")));
  Node.lookup ~reliable:false node ~key:(hexid "c0") ~seq:3;
  Node.handle node ~src:1 (M.make ~sender:b (incoming ~seq:3 ~origin:self (hexid "c0")));
  Alcotest.(check (list int)) "honest next hop taken" [ 2; 2; 2 ]
    (List.map fst (lookups_sent s))

(* a redirect is a routed hop: it asks for a per-hop ack, and when the
   new next hop stays silent the hop timeout re-routes the lookup
   honestly — the re-route reaches the upcall with [prev = None], which
   is why re-routes are never intercepted *)
let test_redirect_acked_and_rerouted_honestly () =
  let prevs = ref [] in
  let b0 = Peer.make (hexid "b0") 1 in
  let forward ~prev _ =
    prevs := Option.map (fun (p : Peer.t) -> p.Peer.addr) prev :: !prevs;
    match prev with Some _ -> Node.Redirect b0 | None -> Node.Continue
  in
  let s, node, _b, c = active_trio ~forward () in
  Node.handle node ~src:2
    (M.make ~sender:c (incoming ~reliable:true ~origin:c (hexid "c0")));
  let redirected =
    List.filter
      (fun (m : M.t) -> match m.M.payload with M.Lookup _ -> true | _ -> false)
      (sent_to s 1)
  in
  (match redirected with
  | [ m ] ->
      Alcotest.(check bool) "per-hop ack requested" true (Option.is_some m.M.hop)
  | other -> Alcotest.failf "expected one redirected lookup, got %d" (List.length other));
  (* past the redirect's timeout, short of the re-route's *)
  Engine.run s.engine ~until:(Engine.now s.engine +. (1.5 *. Config.hop_rto_initial));
  Alcotest.(check (list (option int))) "upcall saw the hop, then the re-route"
    [ Some 2; None ] (List.rev !prevs);
  match lookups_sent s with
  | [ (1, _); (2, l) ] -> Alcotest.(check bool) "re-routed as a retransmission" true l.M.retx
  | other ->
      Alcotest.failf "expected the redirect then an honest re-route, got %s"
        (String.concat ", " (List.map (fun (d, _) -> string_of_int d) other))

(* ------------------------------------------------ progress checking *)

let test_progress_check_convicts_misrouter () =
  let cfg = { cfg with Config.progress_check = true } in
  let s, node, b, c = active_trio ~cfg () in
  (* [c] forwards us a lookup whose key is [c]'s own id: we share no
     prefix digit with the key and are strictly farther than the
     forwarder — an honest router would never have made that hop *)
  Node.handle node ~src:2 (M.make ~sender:c (incoming ~hops:1 ~origin:b (hexid "c0")));
  Alcotest.(check (list int)) "previous hop convicted" [ 2 ] s.convicted;
  Alcotest.(check bool) "distrusted for routing" true
    (List.exists (fun id -> Nodeid.equal id c.Peer.id) (Node.distrusted_set node));
  (* detection must not turn one bad hop into a loss: the lookup is
     still routed (here: we are now the best non-distrusted root) *)
  Alcotest.(check bool) "still routed or delivered" true
    (List.length (lookups_sent s) + List.length s.delivered > 0)

let test_progress_check_spares_honest_forward () =
  let cfg = { cfg with Config.progress_check = true } in
  let s, node, b, _c = active_trio ~cfg () in
  (* we are strictly closer to [a1] than the forwarder [b0]: progress *)
  Node.handle node ~src:1 (M.make ~sender:b (incoming ~hops:1 ~origin:b (hexid "a1")));
  Alcotest.(check (list int)) "no conviction" [] s.convicted

(* a lookup the upcall absorbs or redirects is no routing decision of
   this node's: nobody is convicted for the hop that brought it *)
let test_progress_check_skips_intercepted () =
  let cfg = { cfg with Config.progress_check = true } in
  let decision = ref Node.Absorb in
  let s, node, b, c = active_trio ~cfg ~forward:(fun ~prev:_ _ -> !decision) () in
  Node.handle node ~src:2 (M.make ~sender:c (incoming ~hops:1 ~origin:b (hexid "c0")));
  decision := Node.Redirect b;
  Node.handle node ~src:2 (M.make ~sender:c (incoming ~seq:4 ~hops:1 ~origin:b (hexid "c0")));
  Alcotest.(check (list int)) "nobody convicted" [] s.convicted;
  Alcotest.(check (list int)) "only the redirect went out" [ 1 ]
    (List.map fst (lookups_sent s))

let test_progress_check_off_by_default () =
  let s, node, b, c = active_trio () in
  Node.handle node ~src:2 (M.make ~sender:c (incoming ~hops:1 ~origin:b (hexid "c0")));
  Alcotest.(check (list int)) "baseline never convicts" [] s.convicted;
  Alcotest.(check (list string)) "nobody distrusted" []
    (List.map Nodeid.to_hex (Node.distrusted_set node))

(* ---------------------------------------------- gossip verification *)

(* answer the pending identity challenge for [claimed] from [addr] with
   identity [answer_id] *)
let answer_challenge s node ~addr ~answer_id =
  match
    List.filter_map
      (fun m -> match m.M.payload with M.Id_challenge { nonce } -> Some nonce | _ -> None)
      (sent_to s addr)
  with
  | [] -> Alcotest.fail "expected an identity challenge"
  | nonces ->
      let nonce = List.nth nonces (List.length nonces - 1) in
      Node.handle node ~src:addr
        (M.make ~sender:(Peer.make answer_id addr) (M.Id_response { nonce; id = answer_id }))

let test_gossip_verification_rejects_forged_sender () =
  let cfg = { cfg with Config.verify_gossip = true } in
  let s = make_script () in
  let node = Node.create ~cfg ~env:(env_of s) ~id:me_id ~addr:0 in
  Node.bootstrap node;
  (* an honest peer passes its challenge and is admitted *)
  let b = Peer.make (hexid "b0") 1 in
  Node.handle node ~src:1 (M.make ~sender:b (ls_probe ()));
  Alcotest.(check bool) "not admitted before the challenge" false
    (Pastry.Leafset.mem (Node.leafset node) b.Peer.id);
  answer_challenge s node ~addr:1 ~answer_id:b.Peer.id;
  Alcotest.(check bool) "honest peer admitted after challenge" true
    (Pastry.Leafset.mem (Node.leafset node) b.Peer.id);
  (* a forged advertisement: id [d0] claimed for address 5, whose real
     occupant answers the challenge as [e0] *)
  let forged = Peer.make (hexid "d0") 5 in
  Node.handle node ~src:5 (M.make ~sender:forged (ls_probe ()));
  answer_challenge s node ~addr:5 ~answer_id:(hexid "e0");
  Alcotest.(check (list int)) "poison rejection observed" [ 5 ] s.rejected;
  Alcotest.(check bool) "forged entry kept out" false
    (Pastry.Leafset.mem (Node.leafset node) forged.Peer.id);
  (* the forgery is cached: re-advertising it triggers no new challenge *)
  let challenges () =
    List.length
      (List.filter
         (fun m -> match m.M.payload with M.Id_challenge _ -> true | _ -> false)
         (sent_to s 5))
  in
  let before = challenges () in
  Node.handle node ~src:5 (M.make ~sender:forged (ls_probe ()));
  Alcotest.(check int) "no re-challenge for a cached forgery" before (challenges ());
  Alcotest.(check bool) "still out" false
    (Pastry.Leafset.mem (Node.leafset node) forged.Peer.id)

let test_self_forgery_rejected_without_hardening () =
  (* a gossiped pair naming our own transport address under a different
     id is self-evidently forged — rejected even with verify_gossip off,
     in every admission funnel *)
  let s, node, b, _c = active_trio () in
  let fake_me = Peer.make (hexid "b1") 0 in
  Node.handle node ~src:0 (M.make ~sender:fake_me (ls_probe ()));
  Alcotest.(check bool) "receipt-is-liveness does not admit it" false
    (Pastry.Leafset.mem (Node.leafset node) fake_me.Peer.id);
  s.sent <- [];
  Node.handle node ~src:1 (M.make ~sender:b (ls_probe ~leaf:[ fake_me ] ()));
  Alcotest.(check int) "no admission probe to ourselves" 0
    (List.length
       (List.filter
          (fun m -> match m.M.payload with M.Ls_probe _ -> true | _ -> false)
          (sent_to s 0)));
  Alcotest.(check bool) "not admitted from hearsay either" false
    (Pastry.Leafset.mem (Node.leafset node) fake_me.Peer.id)

(* ------------------------------------------------ poisoning adversary *)

(* a settled five-node overlay with one node compromised with [b], every
   send recorded by a network tap: [(time, src, dst, msg)], oldest first *)
let compromised_overlay b =
  let config =
    {
      Sim.default_config with
      topology = Sim.Flat 0.02;
      lookup_rate = 0.0;
      warmup = 0.0;
      window = 60.0;
    }
  in
  let live = Live.create config ~n_endpoints:16 in
  for i = 0 to 4 do
    Live.spawn_at live ~time:(float_of_int i *. 5.0) ()
  done;
  Live.run_until live 100.0;
  Live.inject live (Schedule.adversary ~time:100.0 ~fraction:0.2 b);
  let attacker = ref None in
  Advfault.iter (Live.adversaries live) (fun addr _ -> attacker := Live.find_node live ~addr);
  let attacker = Option.get !attacker in
  let honest =
    List.filter (fun n -> not (n == attacker)) (Live.active_nodes live)
    |> List.sort (fun a b -> compare (Node.me a).Peer.addr (Node.me b).Peer.addr)
  in
  let sent = ref [] in
  Net.on_send (Live.net live) (fun ~time ~src ~dst msg -> sent := (time, src, dst, msg) :: !sent);
  (live, attacker, honest, fun () -> List.rev !sent)

let poisoned_overlay () = compromised_overlay { Advfault.no_behavior with poison = true }

(* deliver [payload] from [src] to [dst] through the network *)
let probe_from live src dst payload =
  Net.send (Live.net live) ~src:(Node.me src).Peer.addr ~dst:(Node.me dst).Peer.addr
    (M.make ~sender:(Node.me src) payload);
  Live.run_until live (Engine.now (Live.engine live) +. 1.0)

(* messages the attacker sent under an identity not its own *)
let forgeries attacker sent =
  let me = Node.me attacker in
  List.filter
    (fun (_, src, _, (m : M.t)) ->
      src = me.Peer.addr && not (Nodeid.equal m.M.sender.Peer.id me.Peer.id))
    sent

let forged_probes_to attacker sent (victim : Peer.t) =
  List.filter_map
    (fun (time, _, dst, (m : M.t)) ->
      match m.M.payload with
      | M.Ls_probe { target; _ } when dst = victim.Peer.addr ->
          Some (time, m.M.sender.Peer.id, target)
      | _ -> None)
    (forgeries attacker sent)

let test_poison_volley_piggybacks_on_gossip () =
  let live, attacker, honest, sent = poisoned_overlay () in
  let h = List.hd honest and x = List.nth honest 1 in
  let check_volley what victim probes =
    Alcotest.(check int) (what ^ ": four fabricated identifiers per volley") 4
      (List.length probes);
    List.iter
      (fun (_, id, target) ->
        Alcotest.(check bool) (what ^ ": forged ids bracket the victim") true
          (List.exists (Nodeid.equal id)
             [
               Nodeid.add victim.Peer.id (Nodeid.of_int 1);
               Nodeid.sub victim.Peer.id (Nodeid.of_int 1);
               Nodeid.add victim.Peer.id (Nodeid.of_int 2);
               Nodeid.sub victim.Peer.id (Nodeid.of_int 2);
             ]);
        Alcotest.(check bool) (what ^ ": volley names the victim as target") true
          (Nodeid.equal target victim.Peer.id))
      probes
  in
  (* [h]'s probe reports [x] failed: the attacker re-probes [x] (its own
     outbound Ls_probe) and answers [h] (an inbound one) — a volley
     follows each *)
  probe_from live h attacker
    (M.Ls_probe
       {
         leaf = [];
         failed = [ (Node.me x).Peer.id ];
         trt = 30.0;
         target = (Node.me attacker).Peer.id;
       });
  check_volley "inbound" (Node.me h) (forged_probes_to attacker (sent ()) (Node.me h));
  check_volley "outbound" (Node.me x) (forged_probes_to attacker (sent ()) (Node.me x));
  (* one volley per victim per t_ls: an immediate second gossip exchange
     does not retrigger it, one a period later does *)
  let first = List.length (forged_probes_to attacker (sent ()) (Node.me h)) in
  probe_from live h attacker (ls_probe ~target:(Node.me attacker).Peer.id ());
  Alcotest.(check int) "volley cooldown" first
    (List.length (forged_probes_to attacker (sent ()) (Node.me h)));
  Live.run_until live (Engine.now (Live.engine live) +. Config.t_ls);
  probe_from live h attacker (ls_probe ~target:(Node.me attacker).Peer.id ());
  Alcotest.(check int) "next period, next volley" (first + 4)
    (List.length (forged_probes_to attacker (sent ()) (Node.me h)))

(* the harness attacks a lookup only as it arrives from another hop: when
   a misrouter's chosen hop is dead, the hop timeout's re-route reaches
   the upcall with [prev = None] and goes to the honest next hop *)
let test_live_misrouter_reroutes_honestly () =
  let live, attacker, honest, sent =
    compromised_overlay { Advfault.no_behavior with misroute = true }
  in
  let root = List.hd honest in
  let key = (Node.me root).Peer.id in
  let dead =
    match
      Advfault.on_lookup { Advfault.no_behavior with misroute = true }
        ~members:(Pastry.Leafset.members (Node.leafset attacker))
        ~key ~seq:0 ~hops:0
    with
    | Advfault.Misroute p -> p
    | Advfault.Pass | Advfault.Drop -> Alcotest.fail "expected a misroute"
  in
  Alcotest.(check bool) "the misroute is not the root" false (Nodeid.equal dead.Peer.id key);
  let origin =
    List.find (fun n -> not (n == root || (Node.me n).Peer.addr = dead.Peer.addr)) honest
  in
  Live.crash_node live (Option.get (Live.find_node live ~addr:dead.Peer.addr));
  let seq = Live.alloc_lookup live in
  Net.send (Live.net live) ~src:(Node.me origin).Peer.addr ~dst:(Node.me attacker).Peer.addr
    (M.make ~sender:(Node.me origin)
       (incoming ~seq ~reliable:true ~origin:(Node.me origin) key));
  Live.run_until live (Engine.now (Live.engine live) +. 5.0);
  Alcotest.(check (list int)) "misrouted to the dead hop, then honestly to the root"
    [ dead.Peer.addr; (Node.me root).Peer.addr ]
    (List.filter_map
       (fun (_, src, dst, (m : M.t)) ->
         match m.M.payload with
         | M.Lookup _ when src = (Node.me attacker).Peer.addr -> Some dst
         | _ -> None)
       (sent ()))

let test_sustain_answers_probes_of_fabricated_ids () =
  let live, attacker, honest, sent = poisoned_overlay () in
  let h = List.hd honest and y = List.nth honest 1 in
  let genuine addr = (Node.me (Option.get (Live.find_node live ~addr))).Peer.id in
  let forged_replies () =
    List.filter_map
      (fun (_, src, _, (m : M.t)) ->
        match m.M.payload with
        | (M.Ls_probe_reply _ | M.Rt_probe_reply _)
          when not (Nodeid.equal m.M.sender.Peer.id (genuine src)) ->
            Some (Nodeid.to_hex m.M.sender.Peer.id)
        | _ -> None)
      (sent ())
  in
  (* honest nodes never answer for identities they do not own *)
  probe_from live h y (ls_probe ~target:(hexid "a5") ());
  probe_from live h y (M.Rt_probe { target = hexid "a7" });
  Alcotest.(check (list string)) "honest node: no forged replies" [] (forged_replies ());
  (* a poisoning adversary answers under exactly the probed identity, so
     fabrications planted anywhere — including second-hand through
     gossip — stay green forever *)
  probe_from live h attacker (ls_probe ~target:(hexid "a5") ());
  probe_from live h attacker (M.Rt_probe { target = hexid "a7" });
  Alcotest.(check (list string)) "replies under the probed identities"
    [ Nodeid.to_hex (hexid "a5"); Nodeid.to_hex (hexid "a7") ]
    (forged_replies ());
  (* probes of its genuine identity are answered once, genuinely *)
  let replies () =
    List.filter
      (fun (_, src, dst, (m : M.t)) ->
        src = (Node.me attacker).Peer.addr
        && dst = (Node.me h).Peer.addr
        && match m.M.payload with M.Ls_probe_reply _ | M.Rt_probe_reply _ -> true | _ -> false)
      (sent ())
  in
  let before = List.length (replies ()) in
  probe_from live h attacker (ls_probe ~target:(Node.me attacker).Peer.id ());
  probe_from live h attacker (M.Rt_probe { target = (Node.me attacker).Peer.id });
  Alcotest.(check int) "own identity never forged" 2 (List.length (forged_replies ()));
  Alcotest.(check int) "one genuine reply per probe" (before + 2) (List.length (replies ()))

(* ----------------------------------------------------- live ground truth *)

let flat_config ?(hardened = false) ?(seed = 9) ?(fault_schedule = []) ?(limit = 0) () =
  let pastry =
    {
      Sim.default_config.Sim.pastry with
      Config.e2e_lookup_retries = 3;
      verify_gossip = hardened;
      progress_check = hardened;
      join_rate_limit = limit;
    }
  in
  {
    Sim.default_config with
    topology = Sim.Flat 0.02;
    lookup_rate = 0.3;
    seed;
    warmup = 0.0;
    window = 60.0;
    fault_schedule;
    pastry;
  }

let spawn_overlay live ~n =
  for i = 0 to n - 1 do
    Live.spawn_at live ~time:(float_of_int i *. 5.0) ()
  done

let byzantine = { Advfault.misroute = true; drop = true; poison = false }

(* Quantitative hardened-vs-baseline margins (success and ring agreement
   at f = 0.2) are gated by the adversary-smoke experiment in CI at a
   scale where routing is genuinely multi-hop; these tests pin the
   qualitative detector semantics at a scale alcotest can afford. The
   expensive Live runs are shared between tests via [lazy]. *)

let run_misrouters ~hardened =
  let schedule =
    [ Schedule.adversary ~label:"byz" ~time:120.0 ~fraction:0.3 byzantine ]
  in
  let live = Live.create (flat_config ~hardened ~fault_schedule:schedule ()) ~n_endpoints:16 in
  spawn_overlay live ~n:10;
  Live.run_until live 520.0;
  let s = Collector.summary ~since:120.0 ~until:500.0 (Live.collector live) in
  Alcotest.(check bool) "someone was compromised" true
    (Advfault.compromised (Live.adversaries live) > 0);
  s

let misrouters_baseline = lazy (run_misrouters ~hardened:false)
let misrouters_hardened = lazy (run_misrouters ~hardened:true)

let test_live_misrouters_invisible_to_liveness_detector () =
  let s = Lazy.force misrouters_baseline in
  (* the whole point of the axis: Byzantine nodes ack and answer probes,
     so the crash detector never fires on them... *)
  Alcotest.(check int) "liveness detector stays green" 0 s.Collector.false_suspicions;
  Alcotest.(check int) "progress checking off in the baseline" 0
    s.Collector.progress_suspicions;
  (* ...while routing demonstrably suffers *)
  Alcotest.(check bool)
    (Printf.sprintf "lookups are lost (success %.4f)" s.Collector.success_rate)
    true
    (s.Collector.success_rate < 0.99)

let test_live_progress_checking_convicts_what_liveness_misses () =
  let b_s = Lazy.force misrouters_baseline in
  let h_s = Lazy.force misrouters_hardened in
  Alcotest.(check bool) "progress checking fires" true (h_s.Collector.progress_suspicions > 0);
  Alcotest.(check int) "still zero false liveness suspicions" 0
    h_s.Collector.false_suspicions;
  (* no regression either: distrust diversion must not cost deliveries
     (the strict improvement margin is adversary-smoke's job, at a scale
     where lookups take more than one hop) *)
  Alcotest.(check bool)
    (Printf.sprintf "hardening does not hurt success (%.4f -> %.4f)"
       b_s.Collector.success_rate h_s.Collector.success_rate)
    true
    (h_s.Collector.success_rate >= b_s.Collector.success_rate)

let run_poisoners ~hardened =
  let schedule =
    [
      Schedule.adversary ~label:"eclipse" ~time:120.0 ~fraction:0.3
        { Advfault.misroute = false; drop = false; poison = true };
    ]
  in
  let live = Live.create (flat_config ~hardened ~fault_schedule:schedule ()) ~n_endpoints:16 in
  spawn_overlay live ~n:10;
  Live.run_until live 420.0;
  let audit = Live.ring_audit live in
  ( Collector.summary (Live.collector live),
    Live.eclipse_audit live,
    audit.Harness.Oracle.agreement )

let poisoners_baseline = lazy (run_poisoners ~hardened:false)
let poisoners_hardened = lazy (run_poisoners ~hardened:true)

let test_live_eclipse_lands_in_baseline_dies_hardened () =
  let _bs, b_ecl, _ = Lazy.force poisoners_baseline in
  Alcotest.(check bool) "baseline: fabricated entries installed" true
    (b_ecl.Live.poisoned_entries > 0);
  Alcotest.(check bool) "baseline: honest nodes eclipsed" true
    (b_ecl.Live.poisoned_nodes > 0);
  let h_s, h_ecl, _ = Lazy.force poisoners_hardened in
  Alcotest.(check int) "verification: zero poisoned entries" 0 h_ecl.Live.poisoned_entries;
  Alcotest.(check bool) "verification visibly rejected forgeries" true
    (h_s.Collector.poison_rejections > 0)

let run_sybil ~limit =
  let schedule =
    [ Schedule.sybil_flood ~label:"sybil" ~time:120.0 ~over:60.0 ~lifetime:120.0 20 ]
  in
  let live =
    Live.create (flat_config ~seed:11 ~fault_schedule:schedule ~limit ()) ~n_endpoints:64
  in
  spawn_overlay live ~n:10;
  Live.run_until live 360.0;
  let s = Collector.summary (Live.collector live) in
  (s.Collector.joins, s.Collector.join_latency_mean, Live.join_failures live)

let test_live_sybil_flood_deferred_by_admission_filter () =
  let open_joins, open_lat, open_fail = run_sybil ~limit:0 in
  let limited_joins, limited_lat, limited_fail = run_sybil ~limit:2 in
  (* the limiter defers the burst rather than denying it: admissions are
     pushed out in time (longer join latency), or past the sybils'
     lifetime entirely (fewer completed joins / more failed ones) *)
  Alcotest.(check bool)
    (Printf.sprintf
       "per-arc limit defers sybil admissions (joins %d -> %d, latency %.1fs -> %.1fs, failures %d -> %d)"
       open_joins limited_joins open_lat limited_lat open_fail limited_fail)
    true
    (limited_lat > open_lat || limited_joins < open_joins || limited_fail > open_fail)

(* overlapping episodes compromise the same nodes: A misroutes from 300
   s for 100 s, B drops from 350 s forever. While both are active every
   node merges their flags, and A's expiry lifts only A's flag — B's
   victims stay compromised *)
let test_live_overlapping_adversary_episodes () =
  let schedule =
    [
      Schedule.adversary ~label:"A" ~time:300.0 ~duration:100.0 ~fraction:1.0
        { Advfault.no_behavior with misroute = true };
      Schedule.adversary ~label:"B" ~time:350.0 ~fraction:1.0
        { Advfault.no_behavior with drop = true };
    ]
  in
  let config = { (flat_config ~fault_schedule:schedule ()) with Sim.lookup_rate = 0.0 } in
  let live = Live.create config ~n_endpoints:16 in
  spawn_overlay live ~n:10;
  let running b =
    List.for_all
      (fun n ->
        Advfault.behavior_of (Live.adversaries live) ~addr:(Node.me n).Peer.addr = Some b)
      (Live.active_nodes live)
  in
  Live.run_until live 380.0;
  Alcotest.(check int) "all ten nodes up" 10 (Live.node_count live);
  Alcotest.(check bool) "both episodes: misroute+drop" true (running misdrop);
  Live.run_until live 450.0;
  Alcotest.(check int) "B keeps all ten compromised" 10
    (Advfault.compromised (Live.adversaries live));
  Alcotest.(check bool) "A expired: drop only" true
    (running { Advfault.no_behavior with drop = true })

let test_live_adversarial_runs_deterministic () =
  let fingerprint (s, (ecl : Live.eclipse), agreement) =
    ( s.Collector.success_rate,
      s.Collector.progress_suspicions,
      s.Collector.poison_rejections,
      ecl.Live.poisoned_entries,
      agreement )
  in
  let a = fingerprint (Lazy.force poisoners_hardened) in
  let b = fingerprint (run_poisoners ~hardened:true) in
  Alcotest.(check bool) "same seed, bit-identical adversarial run" true (a = b)

let suite =
  [
    ( "advfaults",
      [
        Alcotest.test_case "advfault model" `Quick test_advfault_model;
        Alcotest.test_case "compose merges flags" `Quick test_advfault_compose_merges_flags;
        Alcotest.test_case "compromise set indexed by address" `Quick test_advfault_addresses;
        Alcotest.test_case "on_lookup matches brute-force model" `Quick test_on_lookup_model;
        Alcotest.test_case "schedule adversary constructors" `Quick
          test_schedule_adversary_constructors;
        Alcotest.test_case "schedule timestamp validation" `Quick
          test_schedule_timestamp_validation;
        Alcotest.test_case "misroute forwards wrong but alive" `Quick
          test_misroute_forwards_wrong_but_alive;
        Alcotest.test_case "drop eats lookup but acks hop" `Quick
          test_drop_eats_lookup_but_acks_hop;
        Alcotest.test_case "combined behaviour splits by parity" `Quick
          test_combined_behavior_splits_by_parity;
        Alcotest.test_case "adversary spares own lookups" `Quick
          test_adversary_spares_own_lookups;
        Alcotest.test_case "redirect acked, silent target re-routed honestly" `Quick
          test_redirect_acked_and_rerouted_honestly;
        Alcotest.test_case "progress check convicts misrouter" `Quick
          test_progress_check_convicts_misrouter;
        Alcotest.test_case "progress check spares honest forward" `Quick
          test_progress_check_spares_honest_forward;
        Alcotest.test_case "progress check off by default" `Quick
          test_progress_check_off_by_default;
        Alcotest.test_case "progress check skips absorbed and redirected" `Quick
          test_progress_check_skips_intercepted;
        Alcotest.test_case "gossip verification rejects forged sender" `Quick
          test_gossip_verification_rejects_forged_sender;
        Alcotest.test_case "self-forgery rejected without hardening" `Quick
          test_self_forgery_rejected_without_hardening;
        Alcotest.test_case "poison volley piggybacks on gossip" `Quick
          test_poison_volley_piggybacks_on_gossip;
        Alcotest.test_case "sustain answers probes of fabricated ids" `Quick
          test_sustain_answers_probes_of_fabricated_ids;
        Alcotest.test_case "live: misrouter re-routes honestly" `Quick
          test_live_misrouter_reroutes_honestly;
        Alcotest.test_case "live: misrouters invisible to liveness detector" `Slow
          test_live_misrouters_invisible_to_liveness_detector;
        Alcotest.test_case "live: progress checking convicts what liveness misses" `Slow
          test_live_progress_checking_convicts_what_liveness_misses;
        Alcotest.test_case "live: eclipse lands in baseline, dies hardened" `Slow
          test_live_eclipse_lands_in_baseline_dies_hardened;
        Alcotest.test_case "live: sybil flood deferred by admission filter" `Slow
          test_live_sybil_flood_deferred_by_admission_filter;
        Alcotest.test_case "live: adversarial runs deterministic" `Slow
          test_live_adversarial_runs_deterministic;
        Alcotest.test_case "live: overlapping adversary episodes" `Slow
          test_live_overlapping_adversary_episodes;
      ] );
  ]
