module Rng = Repro_util.Rng
module Node = Mspastry.Node
module M = Mspastry.Message
module Collector = Overlay_metrics.Collector
module Obs = Repro_obs
module Netfault = Repro_faults.Netfault
module Nodefault = Repro_faults.Nodefault
module Advfault = Repro_faults.Advfault
module Schedule = Repro_faults.Schedule

type topology_kind = Gatech | Gatech_full | Mercator | Corpnet | Flat of float

let topology_name = function
  | Gatech -> "gatech"
  | Gatech_full -> "gatech-full"
  | Mercator -> "mercator"
  | Corpnet -> "corpnet"
  | Flat _ -> "flat"

let make_topology kind ~rng ~n_endpoints =
  match kind with
  | Gatech ->
      Topology.transit_stub ~transit_domains:6 ~routers_per_transit:3
        ~stubs_per_transit_router:4 ~routers_per_stub:5 ~rng ~n_endpoints ()
  | Gatech_full -> Topology.transit_stub ~rng ~n_endpoints ()
  | Mercator -> Topology.as_graph ~rng ~n_endpoints ()
  | Corpnet -> Topology.corpnet ~rng ~n_endpoints ()
  | Flat d -> Topology.constant ~n_endpoints ~delay:d

type tracing = Trace_off | Trace_memory of int | Trace_jsonl of string

type config = {
  pastry : Mspastry.Config.t;
  topology : topology_kind;
  loss_rate : float;
  lookup_rate : float;
  graceful_leave_fraction : float;
  seed : int;
  warmup : float;
  window : float;
  drain : float;
  tracing : tracing;
  fault_schedule : Schedule.t;
  capacity : Netsim.Net.capacity option;
  prioritize_control : bool;
  manifest_out : string option;
}

let default_config =
  {
    pastry = Mspastry.Config.default;
    topology = Gatech;
    loss_rate = 0.0;
    lookup_rate = 0.01;
    graceful_leave_fraction = 0.0;
    seed = 42;
    warmup = 1800.0;
    window = 600.0;
    drain = 60.0;
    tracing = Trace_off;
    fault_schedule = Schedule.empty;
    capacity = None;
    prioritize_control = true;
    manifest_out = None;
  }

(* set of active node addresses with O(1) random pick *)
module Active_set = struct
  type t = { mutable addrs : int array; mutable n : int; index : (int, int) Hashtbl.t }

  let create () = { addrs = Array.make 64 0; n = 0; index = Hashtbl.create 64 }

  let add t addr =
    if not (Hashtbl.mem t.index addr) then begin
      if t.n = Array.length t.addrs then begin
        let bigger = Array.make (2 * t.n) 0 in
        Array.blit t.addrs 0 bigger 0 t.n;
        t.addrs <- bigger
      end;
      t.addrs.(t.n) <- addr;
      Hashtbl.replace t.index addr t.n;
      t.n <- t.n + 1
    end

  let remove t addr =
    match Hashtbl.find_opt t.index addr with
    | None -> ()
    | Some i ->
        let last = t.addrs.(t.n - 1) in
        t.addrs.(i) <- last;
        Hashtbl.replace t.index last i;
        Hashtbl.remove t.index addr;
        t.n <- t.n - 1

    let size t = t.n

    let pick t rng = if t.n = 0 then None else Some t.addrs.(Rng.int rng t.n)
end

let ph_summary = Obs.Profile.phase "metrics.summary"

module Live = struct
  (* a fault that lasts: a link or node overlay, or compromised nodes with
     their genuine ids (the eclipse audit's ground truth: state entries
     at such an addr under any other id are forged) *)
  type episode =
    | Link of Netfault.t
    | Node of Nodefault.t
    | Adversary of Advfault.behavior * (int * Pastry.Nodeid.t) list

  type t = {
    config : config;
    engine : Simkit.Engine.t;
    topology : Topology.t;
    net : M.t Netsim.Net.t;
    collector : Collector.t;
    oracle : Oracle.t;
    rng_ids : Rng.t;
    rng_workload : Rng.t;
    rng_net : Rng.t;
    rng_faults : Rng.t;
    nodes : (int, Node.t) Hashtbl.t; (* addr -> node *)
    active : Active_set.t;
    trace : Obs.Trace.t;
    n_endpoints : int;
    mutable next_addr : int;
    mutable next_seq : int;
    mutable join_failures : int;
    mutable lookup_end : float;
    mutable base : Netfault.t; (* config.loss_rate's uniform until Set_base *)
    mutable episodes : (int * episode) list; (* active, newest first *)
    mutable next_episode : int;
    mutable adversaries : Advfault.t; (* the adversary episodes, merged *)
    poisoned_at : (int * int, float) Hashtbl.t;
    (* (attacker, victim addr) -> last poison volley. One volley per
       victim per t_ls bounds the attack: without it, each probe of a
       planted entry would trigger a fresh volley, and the feedback loop
       melts the network (louder, but no longer a stealthy adversary) *)
    crash_times : (int, float) Hashtbl.t; (* addr -> non-graceful crash time *)
    detected : (int, unit) Hashtbl.t; (* crashed addrs already suspected once *)
    mutable deliver_hooks : (Node.t -> M.lookup -> unit) list;
    mutable forward_hooks :
      (Node.t -> prev:Pastry.Peer.t option -> M.lookup -> Node.forward_decision) list;
  }

  let engine t = t.engine
  let net t = t.net
  let collector t = t.collector
  let oracle t = t.oracle
  let topology t = t.topology
  let join_failures t = t.join_failures
  let nodes_created t = t.next_addr
  let node_count t = Active_set.size t.active
  let trace t = t.trace

  let registry t =
    let r = Obs.Registry.create () in
    let e () = Simkit.Engine.stats t.engine in
    Obs.Registry.gauge_i r "engine.events_scheduled" (fun () -> (e ()).Simkit.Engine.scheduled);
    Obs.Registry.gauge_i r "engine.events_fired" (fun () -> (e ()).Simkit.Engine.fired);
    Obs.Registry.gauge_i r "engine.events_cancelled" (fun () -> (e ()).Simkit.Engine.cancelled);
    Obs.Registry.gauge_i r "engine.events_pending" (fun () -> (e ()).Simkit.Engine.pending);
    Obs.Registry.gauge_i r "engine.heap_hwm" (fun () -> (e ()).Simkit.Engine.heap_hwm);
    Obs.Registry.gauge_f r "engine.events_per_sim_s" (fun () ->
        (e ()).Simkit.Engine.events_per_sim_s);
    Obs.Registry.gauge_i r "net.sent" (fun () -> Netsim.Net.n_sent t.net);
    Obs.Registry.gauge_i r "net.delivered" (fun () -> Netsim.Net.n_delivered t.net);
    Obs.Registry.gauge_i r "net.dropped_loss" (fun () ->
        (Netsim.Net.stats t.net).Netsim.Net.dropped_loss);
    Obs.Registry.gauge_i r "net.dropped_dead" (fun () ->
        (Netsim.Net.stats t.net).Netsim.Net.dropped_dead);
    Obs.Registry.gauge_i r "net.dropped_fault" (fun () ->
        (Netsim.Net.stats t.net).Netsim.Net.dropped_fault);
    Obs.Registry.gauge_i r "net.dropped_node" (fun () ->
        (Netsim.Net.stats t.net).Netsim.Net.dropped_node);
    Obs.Registry.gauge_i r "net.dropped_congestion" (fun () ->
        (Netsim.Net.stats t.net).Netsim.Net.dropped_congestion);
    List.iter
      (fun cls ->
        let name = M.class_name cls in
        Obs.Registry.gauge_i r ("net.sent." ^ name) (fun () ->
            Netsim.Net.sent_in_class t.net name))
      M.all_classes;
    Obs.Registry.gauge_i r "overlay.active_nodes" (fun () -> node_count t);
    Obs.Registry.gauge_i r "overlay.join_failures" (fun () -> t.join_failures);
    r

  (* netsim counts sends per class index, [M.class_index] *)
  let class_names = Array.of_list (List.map M.class_name M.all_classes)

  (* record construction only; the public [create] below also arms the
     fault schedule (it needs [inject], defined after the crash path) *)
  let create_raw config ~n_endpoints =
    let master = Rng.create config.seed in
    let rng_topo = Rng.split master in
    let rng_net = Rng.split master in
    let rng_ids = Rng.split master in
    let rng_workload = Rng.split master in
    let rng_faults = Rng.split master in
    let topology = make_topology config.topology ~rng:rng_topo ~n_endpoints in
    let trace =
      match config.tracing with
      | Trace_off -> Obs.Trace.disabled
      | Trace_memory capacity -> Obs.Trace.create (Obs.Sink.memory ~capacity)
      | Trace_jsonl path -> Obs.Trace.create (Obs.Sink.jsonl_file path)
    in
    let engine = Simkit.Engine.create () in
    let collector = Collector.create ~window:config.window () in
    let endpoint_of addr = addr mod n_endpoints in
    let net =
      Netsim.Net.create ~endpoint_of
        ~classes:(class_names, fun m -> M.class_index (M.classify m))
        ~seq_of:(fun m ->
          match m.M.payload with M.Lookup l -> Some l.M.seq | _ -> None)
        ?priority_of:
          (if config.prioritize_control then
             Some (fun m -> M.priority (M.classify m))
           else None)
        ?capacity:config.capacity ~trace ~engine ~topology ~rng:rng_net ()
    in
    Netsim.Net.on_send net (fun ~time ~src:_ ~dst:_ msg ->
        Collector.record_send collector ~time (M.classify msg));
    Netsim.Net.on_queue net (fun ~addr:_ ~cls:_ ~delay ->
        Collector.queue_delay collector ~time:(Simkit.Engine.now engine) delay);
    {
      config;
      engine;
      topology;
      net;
      collector;
      oracle = Oracle.create ();
      rng_ids;
      rng_workload;
      rng_net;
      rng_faults;
      nodes = Hashtbl.create 1024;
      active = Active_set.create ();
      trace;
      n_endpoints;
      next_addr = 0;
      next_seq = 0;
      join_failures = 0;
      lookup_end = infinity;
      base = Netfault.uniform ~rate:config.loss_rate;
      episodes = [];
      next_episode = 0;
      adversaries = Advfault.none;
      poisoned_at = Hashtbl.create 8;
      crash_times = Hashtbl.create 64;
      detected = Hashtbl.create 64;
      deliver_hooks = [];
      forward_hooks = [];
    }

  let on_deliver t hook = t.deliver_hooks <- hook :: t.deliver_hooks
  let on_forward t hook = t.forward_hooks <- hook :: t.forward_hooks
  let find_node t ~addr = Hashtbl.find_opt t.nodes addr

  let endpoint_of t addr = addr mod t.n_endpoints

  let alloc_lookup t =
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Collector.lookup_sent t.collector ~seq ~time:(Simkit.Engine.now t.engine);
    seq

  let lookup t node ~key =
    let seq = alloc_lookup t in
    Node.lookup node ~key ~seq;
    seq

  let rec lookup_loop t node =
    if t.config.lookup_rate > 0.0 then begin
      let delay = Rng.exponential t.rng_workload ~mean:(1.0 /. t.config.lookup_rate) in
      ignore
        (Simkit.Engine.schedule t.engine ~delay (fun () ->
             if Node.is_alive node && Node.is_active node then begin
               if Simkit.Engine.now t.engine <= t.lookup_end then begin
                 let key = Pastry.Nodeid.random t.rng_workload in
                 ignore (lookup t node ~key)
               end;
               lookup_loop t node
             end))
    end

  let poisoner t ~addr =
    match Advfault.behavior_of t.adversaries ~addr with Some b -> b.Advfault.poison | None -> false

  (* a message under a forged identity goes straight to the network: it is
     no send of the node's, so the node's send tap must not see it *)
  let send_forged t ~addr ~dst ~id payload =
    Netsim.Net.send t.net ~src:addr ~dst (M.make ~sender:(Pastry.Peer.make id addr) payload)

  (* eclipse-style state poisoning: piggybacked on every gossip exchange
     with [victim], a poisoner also sends Ls_probes whose sender field
     claims identifiers packed tightly around the victim, all backed by
     its own transport address. The receipt-is-liveness rule admits them
     without probing, and the victim's follow-up distance probes
     (answered by the attacker, matched by sequence number only) install
     them into its routing table too. *)
  let poison_volley t node ~addr ~(victim : Pastry.Peer.t) =
    let now = Simkit.Engine.now t.engine and key = (addr, victim.Pastry.Peer.addr) in
    if
      (not (Pastry.Nodeid.equal victim.Pastry.Peer.id (Node.me node).Pastry.Peer.id))
      &&
      match Hashtbl.find_opt t.poisoned_at key with
      | Some last -> now -. last >= Mspastry.Config.t_ls
      | None -> true
    then begin
      Hashtbl.replace t.poisoned_at key now;
      let trt = Node.local_trt node and target = victim.Pastry.Peer.id in
      let probe = M.Ls_probe { leaf = []; failed = []; trt; target } in
      List.iter
        (fun id -> send_forged t ~addr ~dst:victim.Pastry.Peer.addr ~id probe)
        (Advfault.forged_ids target)
    end

  (* the poisoner maintains its fabrications: a probe names the identity
     it checks, and one for an identity the node does not own is answered
     under exactly that identity. Planted entries never age out, never
     trigger eviction or repair, and keep attracting traffic, for one
     reply per probe. This covers second-hand fabrications too: probes
     for a forged entry that gossip spread arrive from nodes never
     poisoned directly. *)
  let sustain_forgery t node ~addr ~(prober : Pastry.Peer.t) ~target reply =
    let me = (Node.me node).Pastry.Peer.id in
    if (not (Pastry.Nodeid.equal target me)) && not (Pastry.Nodeid.equal prober.Pastry.Peer.id me)
    then send_forged t ~addr ~dst:prober.Pastry.Peer.addr ~id:target reply

  (* the network upcall: after the node, a live poisoner answers a probe
     with the volley and the sustaining reply *)
  let receive t node ~addr ~src (msg : M.t) =
    Node.handle node ~src msg;
    match msg.M.payload with
    | M.Ls_probe { target; _ } when poisoner t ~addr && Node.is_alive node ->
        poison_volley t node ~addr ~victim:msg.M.sender;
        sustain_forgery t node ~addr ~prober:msg.M.sender ~target
          (M.Ls_probe_reply { leaf = []; failed = []; trt = Node.local_trt node })
    | M.Rt_probe { target } when poisoner t ~addr && Node.is_alive node ->
        sustain_forgery t node ~addr ~prober:msg.M.sender ~target
          (M.Rt_probe_reply { trt = Node.local_trt node })
    | _ -> ()

  (* the common-API forward upcall: a compromised node decides the fate of
     a lookup that arrived from another hop and that it did not originate;
     then the first application hook that does not [Continue] decides *)
  let forward t node ~addr ~prev (l : M.lookup) =
    let attack =
      match (prev, Advfault.behavior_of t.adversaries ~addr) with
      | Some _, Some b
        when not (Pastry.Nodeid.equal l.M.origin.Pastry.Peer.id (Node.me node).Pastry.Peer.id) -> (
          let members = Pastry.Leafset.members (Node.leafset node) in
          match Advfault.on_lookup b ~members ~key:l.M.key ~seq:l.M.seq ~hops:l.M.hops with
          | Advfault.Pass -> Node.Continue
          | Advfault.Drop -> Node.Absorb
          | Advfault.Misroute p -> Node.Redirect p)
      | _ -> Node.Continue
    in
    List.fold_left
      (fun d hook -> match d with Node.Continue -> hook node ~prev l | d -> d)
      attack t.forward_hooks

  let spawn ?id t () =
    let addr = t.next_addr in
    t.next_addr <- addr + 1;
    let id =
      match id with Some id -> id | None -> Pastry.Nodeid.random t.rng_ids
    in
    let spawn_time = Simkit.Engine.now t.engine in
    let node_ref = ref None in
    let env =
      {
        Node.now = (fun () -> Simkit.Engine.now t.engine);
        send =
          (fun ~dst msg ->
            Netsim.Net.send t.net ~src:addr ~dst msg;
            match (msg.M.payload, !node_ref) with
            | M.Ls_probe { target; _ }, Some node when poisoner t ~addr ->
                poison_volley t node ~addr ~victim:(Pastry.Peer.make target dst)
            | _ -> ());
        schedule = (fun ~delay fn -> Simkit.Engine.schedule t.engine ~delay fn);
        cancel = (fun ev -> Simkit.Engine.cancel t.engine ev);
        rng = Rng.split t.rng_ids;
        deliver =
          (fun l ->
            match !node_ref with
            | None -> ()
            | Some node ->
                let correct =
                  match Oracle.closest t.oracle l.M.key with
                  | Some (root_id, _) -> Pastry.Nodeid.equal root_id id
                  | None -> false
                in
                let direct =
                  Topology.delay t.topology
                    (endpoint_of t l.M.origin.Pastry.Peer.addr)
                    (endpoint_of t addr)
                in
                Collector.lookup_delivered t.collector ~seq:l.M.seq
                  ~time:(Simkit.Engine.now t.engine) ~correct ~direct_delay:direct
                  ~hops:l.M.hops;
                List.iter (fun hook -> hook node l) t.deliver_hooks);
        forward =
          (fun ~prev l ->
            match !node_ref with
            | None -> Node.Continue
            | Some node -> forward t node ~addr ~prev l);
        on_active =
          (fun () ->
            (match !node_ref with
            | Some node ->
                let now = Simkit.Engine.now t.engine in
                Oracle.add t.oracle id addr;
                Active_set.add t.active addr;
                Collector.set_population t.collector ~time:now (Active_set.size t.active);
                Collector.join_recorded t.collector ~time:now ~latency:(now -. spawn_time);
                lookup_loop t node
            | None -> ()));
        on_join_failed =
          (fun () ->
            t.join_failures <- t.join_failures + 1;
            Netsim.Net.unregister t.net ~addr;
            Hashtbl.remove t.nodes addr);
        (* failure-detector accuracy against harness ground truth: a
           suspicion of a node still in [t.nodes] is false (slow, not
           dead); the first suspicion of a crashed node times the
           detector *)
        on_suspicion =
          (fun ~target ->
            let time = Simkit.Engine.now t.engine in
            let target_alive = Hashtbl.mem t.nodes target in
            Collector.suspicion_recorded t.collector ~time ~target_alive;
            if not target_alive then
              match Hashtbl.find_opt t.crash_times target with
              | Some crashed_at when not (Hashtbl.mem t.detected target) ->
                  Hashtbl.replace t.detected target ();
                  Collector.crash_detected t.collector ~time ~latency:(time -. crashed_at)
              | Some _ | None -> ());
        (* Byzantine-hardening observers; silent unless the hardening
           toggles fire (never on the default path) *)
        on_progress_suspect =
          (fun ~target:_ ->
            Collector.progress_suspicion_recorded t.collector
              ~time:(Simkit.Engine.now t.engine));
        on_poison_reject =
          (fun ~target:_ ->
            Collector.poison_rejected t.collector ~time:(Simkit.Engine.now t.engine));
        (* local load signal for backpressure: the node's own inbound
           queue occupancy under the capacity model (always 0 when it is
           off) *)
        load = (fun () -> Netsim.Net.queue_occupancy t.net ~addr);
        trace = t.trace;
      }
    in
    let node = Node.create ~cfg:t.config.pastry ~env ~id ~addr in
    node_ref := Some node;
    Hashtbl.replace t.nodes addr node;
    Netsim.Net.register t.net ~addr (fun ~src msg -> receive t node ~addr ~src msg);
    (match Active_set.pick t.active t.rng_ids with
    | Some seed_addr -> Node.join node ~bootstrap_addr:seed_addr
    | None ->
        if t.next_addr = 1 then Node.bootstrap node
        else begin
          (* no live node to join through yet: retry shortly *)
          let rec retry () =
            if Node.is_alive node && not (Node.is_active node) then begin
              match Active_set.pick t.active t.rng_ids with
              | Some seed_addr -> Node.join node ~bootstrap_addr:seed_addr
              | None -> ignore (Simkit.Engine.schedule t.engine ~delay:5.0 retry)
            end
          in
          ignore (Simkit.Engine.schedule t.engine ~delay:5.0 retry)
        end);
    node

  let spawn_at t ~time () =
    ignore (Simkit.Engine.schedule_at t.engine ~time (fun () -> ignore (spawn t ())))

  let crash_node ?(graceful = false) t node =
    let addr = (Node.me node).Pastry.Peer.addr in
    let id = (Node.me node).Pastry.Peer.id in
    let was_active = Node.is_active node in
    if graceful then Node.leave node
    else Hashtbl.replace t.crash_times addr (Simkit.Engine.now t.engine);
    Node.crash node;
    Netsim.Net.unregister t.net ~addr;
    Hashtbl.remove t.nodes addr;
    if was_active then begin
      Oracle.remove t.oracle id;
      Active_set.remove t.active addr;
      Collector.set_population t.collector
        ~time:(Simkit.Engine.now t.engine)
        (Active_set.size t.active)
    end

  let active_nodes t =
    Hashtbl.fold (fun _ n acc -> if Node.is_active n then n :: acc else acc) t.nodes []

  (* ---- fault injection ---- *)

  let emit_fault t ~label ~action =
    if Obs.Trace.enabled t.trace then
      Obs.Trace.emit t.trace
        {
          Obs.Event.time = Simkit.Engine.now t.engine;
          body = Obs.Event.Fault { label; action };
        }

  (* recompose the registry into what runs: the base link model
     composed with the link episodes, the node episodes composed, and the
     adversary episodes merged (a node compromised by several runs the
     union of their flags). Episodes compose oldest first *)
  let refresh t =
    let eps = List.rev_map snd t.episodes in
    Netsim.Net.set_faults t.net
      ~link:
        (Netfault.compose
           (t.base :: List.filter_map (function Link f -> Some f | _ -> None) eps))
      ~node:
        (Nodefault.compose (List.filter_map (function Node f -> Some f | _ -> None) eps));
    t.adversaries <-
      Advfault.compose
        (List.filter_map
           (function
             | _, Adversary (b, victims) ->
                 Some (Advfault.compromise b ~addrs:(List.map fst victims) ())
             | _ -> None)
           t.episodes)

  (* register an episode; a finite one expires after [duration] unless
     a [Heal] removed it first *)
  let add_episode t ~label ~duration ep =
    let id = t.next_episode in
    t.next_episode <- id + 1;
    t.episodes <- (id, ep) :: t.episodes;
    refresh t;
    if Float.is_finite duration then
      ignore
        (Simkit.Engine.schedule t.engine ~delay:duration (fun () ->
             if List.mem_assoc id t.episodes then begin
               t.episodes <- List.remove_assoc id t.episodes;
               refresh t;
               emit_fault t ~label ~action:"heal"
             end))

  (* a random [fraction] of the active nodes, from the dedicated fault
     RNG stream (at least one when the fraction is positive) *)
  let pick_victims t fraction =
    if fraction < 0.0 || fraction > 1.0 then invalid_arg "Live.pick_victims";
    let n = Active_set.size t.active in
    let k =
      if fraction = 0.0 || n = 0 then 0
      else max 1 (int_of_float (Float.round (fraction *. float_of_int n)))
    in
    if k = 0 then [||]
    else begin
      let addrs = Array.sub t.active.Active_set.addrs 0 n in
      Rng.shuffle t.rng_faults addrs;
      Array.sub addrs 0 k
    end

  let crash_fraction ?(graceful = false) t fraction =
    let victims = pick_victims t fraction in
    Array.iter
      (fun addr ->
        match Hashtbl.find_opt t.nodes addr with
        | Some node -> crash_node ~graceful t node
        | None -> ())
      victims;
    Array.length victims

  let inject t (ev : Schedule.event) =
    let label = ev.Schedule.label in
    (match ev.Schedule.action with
    | Schedule.Heal -> ()
    | _ ->
        Collector.fault_injected t.collector ~time:(Simkit.Engine.now t.engine)
          ~label);
    (match ev.Schedule.action with
    | Schedule.Crash_fraction { fraction; graceful } ->
        ignore (crash_fraction ~graceful t fraction)
    | Schedule.Set_base f ->
        t.base <- f;
        refresh t
    | Schedule.Overlay { fault; duration } ->
        add_episode t ~label ~duration (Link fault)
    | Schedule.Partition { groups; duration } ->
        let assignment =
          Array.init t.n_endpoints (fun _ -> Rng.int t.rng_faults groups)
        in
        add_episode t ~label ~duration
          (Link (Netfault.partition ~group_of:(fun e -> assignment.(e))))
    | Schedule.Node_fault { fraction; kind; duration } ->
        let addrs = Array.to_list (pick_victims t fraction) in
        let fault =
          match kind with
          | Schedule.Fail_slow { factor; extra } ->
              Nodefault.fail_slow ~factor ~extra ~addrs ()
          | Schedule.Fail_silent -> Nodefault.fail_silent ~addrs ()
          | Schedule.Flapping { period; duty } ->
              (* phase-lock to the injection instant: victims go down now *)
              Nodefault.flapping
                ~phase:(Simkit.Engine.now t.engine)
                ~period ~duty ~addrs ()
        in
        add_episode t ~label ~duration (Node fault)
    | Schedule.Lookup_storm { rate; duration } ->
        (* additive overload: every currently-active node runs an extra
           Poisson lookup process at [rate] until the storm's end, on top
           of (and from the same RNG stream as) the configured workload *)
        let storm_end = Simkit.Engine.now t.engine +. duration in
        let storm node =
          let rec loop () =
            let delay = Rng.exponential t.rng_workload ~mean:(1.0 /. rate) in
            ignore
              (Simkit.Engine.schedule t.engine ~delay (fun () ->
                   if
                     Node.is_alive node && Node.is_active node
                     && Simkit.Engine.now t.engine <= storm_end
                   then begin
                     let key = Pastry.Nodeid.random t.rng_workload in
                     ignore (lookup t node ~key);
                     loop ()
                   end))
          in
          loop ()
        in
        List.iter storm (active_nodes t)
    | Schedule.Flash_crowd { joiners; over } ->
        let now = Simkit.Engine.now t.engine in
        let step =
          if joiners > 1 then over /. float_of_int (joiners - 1) else 0.0
        in
        for i = 0 to joiners - 1 do
          spawn_at t ~time:(now +. (float_of_int i *. step)) ()
        done
    | Schedule.Adversary { fraction; behavior; duration } ->
        (* compromise live nodes in place: they keep their transport and
           protocol state but route/gossip byzantinely from now on *)
        let victims =
          Array.to_list (pick_victims t fraction)
          |> List.filter_map (fun addr ->
                 Option.map
                   (fun node -> (addr, (Node.me node).Pastry.Peer.id))
                   (Hashtbl.find_opt t.nodes addr))
        in
        add_episode t ~label ~duration (Adversary (behavior, victims))
    | Schedule.Sybil_flood { joiners; over; lifetime } -> (
        (* a burst of short-lived joiners with identifiers crafted to
           crowd one victim's leaf set: ids alternate just left / just
           right of the victim, marching outwards *)
        match Active_set.pick t.active t.rng_faults with
        | None -> ()
        | Some victim_addr ->
            let victim_id =
              match Hashtbl.find_opt t.nodes victim_addr with
              | Some n -> (Node.me n).Pastry.Peer.id
              | None -> Pastry.Nodeid.random t.rng_faults
            in
            let now = Simkit.Engine.now t.engine in
            let step =
              if joiners > 1 then over /. float_of_int (joiners - 1) else 0.0
            in
            for i = 0 to joiners - 1 do
              let off = Pastry.Nodeid.of_int ((i / 2) + 1) in
              let id =
                if i mod 2 = 0 then Pastry.Nodeid.add victim_id off
                else Pastry.Nodeid.sub victim_id off
              in
              ignore
                (Simkit.Engine.schedule_at t.engine
                   ~time:(now +. (float_of_int i *. step))
                   (fun () ->
                     let node = spawn ~id t () in
                     ignore
                       (Simkit.Engine.schedule t.engine ~delay:lifetime
                          (fun () ->
                            if Node.is_alive node then crash_node t node))))
            done)
    | Schedule.Heal ->
        t.base <- Netfault.uniform ~rate:t.config.loss_rate;
        t.episodes <- [];
        refresh t);
    emit_fault t ~label ~action:(Schedule.describe ev.Schedule.action)

  let create config ~n_endpoints =
    let t = create_raw config ~n_endpoints in
    refresh t;
    List.iter
      (fun (ev : Schedule.event) ->
        ignore
          (Simkit.Engine.schedule_at t.engine ~time:ev.Schedule.time (fun () ->
               inject t ev)))
      (Schedule.sorted config.fault_schedule);
    t

  let ring_audit t =
    Oracle.ring_audit t.oracle ~neighbors:(fun addr ->
        match Hashtbl.find_opt t.nodes addr with
        | None -> None
        | Some node ->
            if not (Node.is_active node) then None
            else
              let ls = Node.leafset node in
              let id_of p = p.Pastry.Peer.id in
              Some
                ( Option.map id_of (Pastry.Leafset.left_neighbor ls),
                  Option.map id_of (Pastry.Leafset.right_neighbor ls) ))

  let adversaries t = t.adversaries

  type eclipse = {
    poisoned_entries : int;
    state_entries : int;
    poisoned_nodes : int;
  }

  (* how much honest routing state points at attackers under a fabricated
     identity: walk every active honest node's leaf set and routing
     table, counting entries whose address belongs to a compromised node
     but whose id is not that node's genuine id *)
  let eclipse_audit t =
    let genuine = Hashtbl.create 16 in
    List.iter
      (function
        | _, Adversary (_, victims) ->
            List.iter (fun (addr, id) -> Hashtbl.replace genuine addr id) victims
        | _, (Link _ | Node _) -> ())
      t.episodes;
    let poisoned = ref 0 and total = ref 0 and affected = ref 0 in
    Hashtbl.iter
      (fun addr node ->
        if Node.is_active node && not (Hashtbl.mem genuine addr) then begin
          let entries =
            Pastry.Leafset.members (Node.leafset node)
            @ Pastry.Routing_table.peers (Node.table node)
          in
          let bad =
            List.filter
              (fun p ->
                match Hashtbl.find_opt genuine p.Pastry.Peer.addr with
                | Some genuine ->
                    not (Pastry.Nodeid.equal genuine p.Pastry.Peer.id)
                | None -> false)
              entries
          in
          total := !total + List.length entries;
          poisoned := !poisoned + List.length bad;
          if bad <> [] then incr affected
        end)
      t.nodes;
    {
      poisoned_entries = !poisoned;
      state_entries = !total;
      poisoned_nodes = !affected;
    }

  let run_until t time = Simkit.Engine.run t.engine ~until:time

  let summary ?since ?until t =
    if !Obs.Profile.on then Obs.Profile.enter ph_summary;
    let s =
      Collector.summary
        ~since:(Option.value since ~default:t.config.warmup)
        ~until:(Option.value until ~default:t.lookup_end)
        t.collector
    in
    if !Obs.Profile.on then Obs.Profile.leave ph_summary;
    s

  (* ---- run manifest ---- *)

  let config_json (c : config) =
    let p = c.pastry in
    Obs.Json.Obj
      [
        ("topology", Obs.Json.String (topology_name c.topology));
        ("loss_rate", Obs.Json.Float c.loss_rate);
        ("lookup_rate", Obs.Json.Float c.lookup_rate);
        ("graceful_leave_fraction", Obs.Json.Float c.graceful_leave_fraction);
        ("warmup", Obs.Json.Float c.warmup);
        ("window", Obs.Json.Float c.window);
        ("drain", Obs.Json.Float c.drain);
        ( "capacity",
          match c.capacity with
          | None -> Obs.Json.Null
          | Some cap ->
              Obs.Json.Obj
                [
                  ("service_rate", Obs.Json.Float cap.Netsim.Net.service_rate);
                  ("queue_limit", Obs.Json.Int cap.Netsim.Net.queue_limit);
                ] );
        ("prioritize_control", Obs.Json.Bool c.prioritize_control);
        ( "pastry",
          Obs.Json.Obj
            ([
               ("b", Obs.Json.Int p.Mspastry.Config.b);
               ("l", Obs.Json.Int p.Mspastry.Config.l);
               ("probe_volley", Obs.Json.Int p.Mspastry.Config.probe_volley);
               ("per_hop_acks", Obs.Json.Bool p.Mspastry.Config.per_hop_acks);
               ("active_probing", Obs.Json.Bool p.Mspastry.Config.active_probing);
               ("lr_target", Obs.Json.Float p.Mspastry.Config.lr_target);
               ("root_retries", Obs.Json.Int p.Mspastry.Config.root_retries);
               ( "e2e_lookup_retries",
                 Obs.Json.Int p.Mspastry.Config.e2e_lookup_retries );
               ("backpressure", Obs.Json.Bool p.Mspastry.Config.backpressure);
             ]
            (* only mentioned when some hardening is on, so default-config
               manifests stay byte-identical to pre-hardening builds *)
            @ (if
                 p.Mspastry.Config.verify_gossip
                 || p.Mspastry.Config.progress_check
                 || p.Mspastry.Config.join_rate_limit > 0
               then
                 [
                   ( "verify_gossip",
                     Obs.Json.Bool p.Mspastry.Config.verify_gossip );
                   ( "progress_check",
                     Obs.Json.Bool p.Mspastry.Config.progress_check );
                   ( "join_rate_limit",
                     Obs.Json.Int p.Mspastry.Config.join_rate_limit );
                 ]
               else [])) );
      ]

  let manifest ?(label = "run") t =
    let es = Simkit.Engine.stats t.engine in
    let engine =
      Obs.Json.Obj
        [
          ("scheduled", Obs.Json.Int es.Simkit.Engine.scheduled);
          ("fired", Obs.Json.Int es.Simkit.Engine.fired);
          ("cancelled", Obs.Json.Int es.Simkit.Engine.cancelled);
          ("pending", Obs.Json.Int es.Simkit.Engine.pending);
          ("heap_hwm", Obs.Json.Int es.Simkit.Engine.heap_hwm);
          ("live_hwm", Obs.Json.Int es.Simkit.Engine.live_hwm);
          ("events_per_sim_s", Obs.Json.Float es.Simkit.Engine.events_per_sim_s);
        ]
    in
    Manifest.build ~label ~seed:t.config.seed ~config:(config_json t.config)
      ~counters:(Obs.Registry.to_json (registry t))
      ~histograms:
        [
          ( "lookup_delay_s",
            Obs.Hist.summary_json (Collector.lookup_delay_hist t.collector) );
          ("lookup_hops", Obs.Hist.summary_json (Collector.hop_hist t.collector));
          ( "queue_delay_s",
            Obs.Hist.summary_json (Collector.queue_delay_hist t.collector) );
        ]
      ~profile:(Obs.Profile.report_to_json (Obs.Profile.report ()))
      ~engine

  let close t =
    (match t.config.manifest_out with
    | Some path -> Manifest.write ~path (manifest t)
    | None -> ());
    Obs.Trace.close t.trace
end

let schedule_trace live trace =
  (* trace node index -> live node *)
  let by_trace_node = Hashtbl.create 1024 in
  Array.iter
    (fun ev ->
      let time = ev.Churn.Trace.time in
      match ev.Churn.Trace.kind with
      | Churn.Trace.Join ->
          ignore
            (Simkit.Engine.schedule_at live.Live.engine ~time (fun () ->
                 let node = Live.spawn live () in
                 Hashtbl.replace by_trace_node ev.Churn.Trace.node node))
      | Churn.Trace.Leave ->
          ignore
            (Simkit.Engine.schedule_at live.Live.engine ~time (fun () ->
                 match Hashtbl.find_opt by_trace_node ev.Churn.Trace.node with
                 | Some node ->
                     Hashtbl.remove by_trace_node ev.Churn.Trace.node;
                     let graceful =
                       live.Live.config.graceful_leave_fraction > 0.0
                       && Rng.float live.Live.rng_workload 1.0
                          < live.Live.config.graceful_leave_fraction
                     in
                     Live.crash_node ~graceful live node
                 | None -> ())))
    (Churn.Trace.events trace)

let ph_setup = Obs.Profile.phase "harness.setup"

(* cap on distinct network attachment points *)
let max_endpoints = 4096

let live_of_trace config ~trace =
  if !Obs.Profile.on then Obs.Profile.enter ph_setup;
  let n_endpoints =
    min max_endpoints (max 16 (Churn.Trace.max_concurrent trace * 2))
  in
  let live = Live.create config ~n_endpoints in
  live.Live.lookup_end <- Churn.Trace.duration trace;
  schedule_trace live trace;
  if !Obs.Profile.on then Obs.Profile.leave ph_setup;
  live

let run config ~trace =
  let live = live_of_trace config ~trace in
  let duration = Churn.Trace.duration trace in
  Live.run_until live (duration +. config.drain);
  Live.close live;
  Collector.flush live.Live.collector ~time:duration;
  live
