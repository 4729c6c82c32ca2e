open Pastry
module M = Message
module Rng = Repro_util.Rng
module Obs = Repro_obs
module Profile = Repro_obs.Profile

(* one profile phase per traffic class: where does protocol handler time
   go — lookups, acks, or background maintenance? *)
let ph_node_lookup = Profile.phase "node.lookup"
let ph_node_lookup_ack = Profile.phase "node.lookup-acks"
let ph_node_dprobe = Profile.phase "node.distance-probes"
let ph_node_leafset = Profile.phase "node.leafset-hb/probes"
let ph_node_rt_probe = Profile.phase "node.rt-probes"
let ph_node_ack = Profile.phase "node.acks+retransmits"
let ph_node_join = Profile.phase "node.join"
let ph_node_maint = Profile.phase "node.rt-maintenance"

let node_phase = function
  | M.C_lookup -> ph_node_lookup
  | M.C_lookup_ack -> ph_node_lookup_ack
  | M.C_distance_probe -> ph_node_dprobe
  | M.C_leafset -> ph_node_leafset
  | M.C_rt_probe -> ph_node_rt_probe
  | M.C_ack_retransmit -> ph_node_ack
  | M.C_join -> ph_node_join
  | M.C_maintenance -> ph_node_maint

type forward_decision = Continue | Absorb | Redirect of Peer.t

type env = {
  now : unit -> float;
  send : dst:int -> Message.t -> unit;
  schedule : delay:float -> (unit -> unit) -> Simkit.Engine.event_id;
  cancel : Simkit.Engine.event_id -> unit;
  rng : Rng.t;
  deliver : Message.lookup -> unit;
  forward : prev:Peer.t option -> Message.lookup -> forward_decision;
  on_active : unit -> unit;
  on_join_failed : unit -> unit;
  on_suspicion : target:int -> unit;
  on_progress_suspect : target:int -> unit;
  on_poison_reject : target:int -> unit;
  load : unit -> int;
  trace : Obs.Trace.t;
}

(* Fig 2's leaf-set probe, which carries the leaf set and failed_i, or
   §3.2's routing-table probe, a bare liveness check *)
type probe_kind = Ls | Rt

type probe_state = {
  p_kind : probe_kind;
  p_peer : Peer.t;
  mutable p_retries : int;
  mutable p_timer : Simkit.Engine.event_id option;
}

type dprobe = {
  d_target : Peer.t;
  d_total : int;
  d_announce : bool;
  d_on_done : float option -> unit;
  mutable d_samples : float list;
  d_sent_at : (int, float) Hashtbl.t; (* probe_seq -> send time *)
  mutable d_finish : Simkit.Engine.event_id option;
}

type pending_hop = {
  h_payload : M.payload;
  h_key : Nodeid.t;
  h_dst : Peer.t;
  h_sent_at : float;
  h_reroutes : int;
  mutable h_timer : Simkit.Engine.event_id option;
}

type nn_state = {
  mutable nn_outstanding : int;
  mutable nn_best : Peer.t option;
  mutable nn_best_rtt : float;
  mutable nn_rounds : int;
  mutable nn_fallback : Peer.t option; (* reply sender, used if all probes fail *)
}

type buffered = { bf_payload : M.payload; bf_key : Nodeid.t; mutable bf_attempts : int }

(* negative-caching entry: quarantined until [s_until]; kept after expiry
   so a re-suspicion doubles the backoff instead of starting over *)
type susp = { mutable s_until : float; mutable s_backoff : float }

type e2e_state = {
  e_key : Nodeid.t;
  mutable e_attempt : int;
  mutable e_timeout : float;
  mutable e_timer : Simkit.Engine.event_id option;
  mutable e_first_hop : Peer.t option;
      (* first hop of the current attempt — excluded before an e2e retry
         re-routes (progress_check's origin-side diversion) *)
}

(* outstanding gossip-verification challenge (verify_gossip): the
   advertised identity under test and the admissions to run if the node
   at that address proves it *)
type id_challenge = {
  c_claimed : Peer.t;
  mutable c_ks : (unit -> unit) list;
  mutable c_timer : Simkit.Engine.event_id option;
}

(* a peer's timestamps. An all-float record holds its floats unboxed, so
   an update allocates nothing and a peer costs no box per time. They
   start at [neg_infinity]: "never" is infinitely long ago. *)
type times = {
  mutable last_heard : float;
  mutable last_sent : float;
  mutable excluded_until : float; (* per-hop-ack exclusion (§3.2) *)
  mutable last_measured : float; (* last distance measurement started *)
  mutable last_rt_probe : float;
  mutable distrust_until : float;
      (* routing suspect (misrouter). Unlike [susp], a direct message
         does NOT clear distrust: Byzantine peers are fully alive, so
         liveness is no exoneration. *)
}

(* everything the node keeps about one peer, so each received or sent
   message and each probe gate costs one lookup. A record is created on
   the first write and never removed, so timers may hold on to it. *)
type peer_state = {
  times : times;
  mutable rto : Rto.t option; (* per-hop ack timer, from the first routed hop *)
  mutable susp : susp option;
  mutable ls_probe : probe_state option;
  mutable rt_probe : probe_state option;
  mutable verified : int option; (* the address this id proved itself at *)
  mutable forged : bool; (* failed verification *)
  mutable challenge : int option; (* nonce of the outstanding challenge *)
  mutable dprobe : dprobe option;
}

type t = {
  cfg : Config.t;
  env : env;
  me : Peer.t;
  mutable active : bool;
  mutable alive : bool;
  mutable was_active : bool;
  leafset : Leafset.t;
  table : Routing_table.t;
  peers : peer_state Nodeid.Tbl.t;
  mutable ls_probing : int; (* peers with an [ls_probe] *)
  mutable rt_probing : int; (* peers with an [rt_probe] *)
  failed : (Nodeid.t, unit) Hashtbl.t;
  (* Fig 2's failed_i. Polymorphic, unlike [peers]: its fold order is the
     [failed] list on the wire, so another hash would change messages. *)
  e2e : (int, e2e_state) Hashtbl.t; (* lookup seq -> pending retry state *)
  delivered_seqs : (int * int, unit) Hashtbl.t; (* (origin addr, seq) *)
  id_challenges : (int, id_challenge) Hashtbl.t; (* nonce -> pending *)
  mutable next_nonce : int;
  join_admits : float Queue.t; (* join-admission stamps, oldest first *)
  pending : (int, pending_hop) Hashtbl.t;
  mutable next_hop_id : int;
  dprobe_by_seq : (int, dprobe) Hashtbl.t;
  mutable next_dprobe_seq : int;
  dprobe_queue : (unit -> unit) Queue.t;
  mutable dprobes_running : int;
  tuning : Tuning.t;
  mutable trt : float;
  mutable local_trt : float;
  mutable nn : nn_state option;
  mutable join_reply_seen : bool;
  mutable join_retries : int;
  mutable join_timer : Simkit.Engine.event_id option;
  mutable bootstrap_addr : int;
  mutable buffer : buffered list;
  mutable repair_scheduled : bool;
  mutable prev_right : Nodeid.t option;
  mutable right_since : float;
}

let create ~cfg ~env ~id ~addr =
  (match Config.validate cfg with Ok () -> () | Error e -> invalid_arg ("Node.create: " ^ e));
  let me = Peer.make id addr in
  {
    cfg;
    env;
    me;
    active = false;
    alive = true;
    was_active = false;
    leafset = Leafset.create ~l:cfg.l ~me;
    table = Routing_table.create ~b:cfg.b ~me:id;
    peers = Nodeid.Tbl.create 64;
    ls_probing = 0;
    rt_probing = 0;
    failed = Hashtbl.create 16;
    e2e = Hashtbl.create 16;
    delivered_seqs = Hashtbl.create 64;
    id_challenges = Hashtbl.create 8;
    next_nonce = 0;
    join_admits = Queue.create ();
    pending = Hashtbl.create 16;
    next_hop_id = 0;
    dprobe_by_seq = Hashtbl.create 16;
    next_dprobe_seq = 0;
    dprobe_queue = Queue.create ();
    dprobes_running = 0;
    tuning = Tuning.create cfg ~now:(env.now ());
    trt = Config.t_rt_max;
    local_trt = Config.t_rt_max;
    nn = None;
    join_reply_seen = false;
    join_retries = 0;
    join_timer = None;
    bootstrap_addr = -1;
    buffer = [];
    repair_scheduled = false;
    prev_right = None;
    right_since = 0.0;
  }

let me t = t.me
let is_active t = t.active
let is_alive t = t.alive
let leafset t = t.leafset
let table t = t.table
let current_trt t = t.trt
let local_trt t = t.local_trt

let now t = t.env.now ()

(* the peer's record, created on first use *)
let peer t id =
  match Nodeid.Tbl.find t.peers id with
  | ps -> ps
  | exception Not_found ->
      let ps =
        {
          times =
            {
              last_heard = neg_infinity;
              last_sent = neg_infinity;
              excluded_until = neg_infinity;
              last_measured = neg_infinity;
              last_rt_probe = neg_infinity;
              distrust_until = neg_infinity;
            };
          rto = None;
          susp = None;
          ls_probe = None;
          rt_probe = None;
          verified = None;
          forged = false;
          challenge = None;
          dprobe = None;
        }
      in
      Nodeid.Tbl.add t.peers id ps;
      ps

let suspected ps n = match ps.susp with Some s -> s.s_until > n | None -> false

(* [failed] is empty most of the time: skip hashing the id then *)
let is_failed t id = Hashtbl.length t.failed > 0 && Hashtbl.mem t.failed id
let unfail t id = if Hashtbl.length t.failed > 0 then Hashtbl.remove t.failed id

(* the peers whose record satisfies [keep], in identifier order (the
   table's own order follows its hash) *)
let peers_where t keep =
  Nodeid.Tbl.fold (fun id ps acc -> if keep ps then id :: acc else acc) t.peers []
  |> List.sort Nodeid.compare

(* distinct peers in the leaf set and routing table: both hold distinct
   ids and never [me], so the leaf set plus the table entries outside it *)
let m_unique t =
  let m = ref (Leafset.size t.leafset) in
  Routing_table.iter
    (fun e -> if not (Leafset.mem t.leafset e.Routing_table.peer.Peer.id) then incr m)
    t.table;
  !m

let estimated_n t = Tuning.estimate_n t.leafset
let estimated_mu t = Tuning.estimate_mu t.tuning ~m:(m_unique t) ~now:(now t)
let failed_set t = Hashtbl.fold (fun id () acc -> id :: acc) t.failed []
let pending_probes t = t.ls_probing + t.rt_probing
let pending_hops t = Hashtbl.length t.pending
let pending_e2e t = Hashtbl.length t.e2e

(* backpressure: the node is overloaded when its local load signal
   (wired by the harness from the netsim capacity model) is at or above
   [Config.overload_threshold]. Always false in the paper's
   configuration (backpressure off), which never reads the signal. *)
let overloaded t = t.cfg.Config.backpressure && t.env.load () >= Config.overload_threshold

let suspected_set t =
  let n = now t in
  peers_where t (fun ps -> suspected ps n)

let rto_of ps =
  match ps.rto with
  | Some r -> r
  | None ->
      let r =
        Rto.create ~initial:Config.hop_rto_initial ~min:Config.hop_rto_min
          ~max:Config.hop_rto_max
      in
      ps.rto <- Some r;
      r

let send_msg ?hop t (dst : Peer.t) payload =
  (peer t dst.Peer.id).times.last_sent <- now t;
  t.env.send ~dst:dst.Peer.addr (M.make ?hop ~sender:t.me payload)

let cancel_timer t = function Some ev -> t.env.cancel ev | None -> ()

(* a timer that runs [f t x] after [delay] seconds unless the node has
   died by then *)
let after t delay f x = t.env.schedule ~delay (fun () -> if t.alive then f t x)

let emit_ev t body = Obs.Trace.emit t.env.trace { Obs.Event.time = now t; body }
let traced t = Obs.Trace.enabled t.env.trace

let emit_probe t (target : Peer.t) kind =
  if traced t then
    emit_ev t (Obs.Event.Probe { addr = t.me.Peer.addr; target = target.Peer.addr; kind })

(* ------------------------------------------------------------------ *)
(* Byzantine hardening: routing distrust and gossip verification        *)
(* (DESIGN.md §10)                                                      *)
(* ------------------------------------------------------------------ *)

(* a gossiped (id, address) pair naming this node's own transport
   address under a different identifier is self-evidently forged — a
   node knows its own address — so every admission funnel drops it
   outright, in every configuration. Without this, an adversary's own
   forgeries reflect back through gossip as zero-RTT self-entries and
   turn its routing into a zero-delay self-forwarding loop. *)
let self_forgery t (p : Peer.t) =
  p.Peer.addr = t.me.Peer.addr && not (Nodeid.equal p.Peer.id t.me.Peer.id)

let distrusted_set t =
  let n = now t in
  peers_where t (fun ps -> ps.times.distrust_until > n)

(* a regressive forward is evidence of misrouting: exclude the forwarder
   from this node's routing decisions for a while. Kept out of the
   liveness suspicion list — misrouters answer probes, so [note_alive]
   would instantly exonerate them there. *)
let distrust_peer t (j : Peer.t) ~seq ~hops =
  (peer t j.Peer.id).times.distrust_until <- now t +. Config.exclusion_period;
  if traced t then
    emit_ev t
      (Obs.Event.Progress_suspect { addr = t.me.Peer.addr; suspect = j.Peer.addr; seq; hops });
  t.env.on_progress_suspect ~target:j.Peer.addr

(* Gossip verification funnel: run [k] (an admission into the leaf set
   or routing table) only once the node at the advertised address has
   proved the advertised identifier via a direct challenge. Identifiers
   model certified nodeIds: the response always carries the responder's
   genuine id (the one it could certify), so a forged advertisement can
   never verify. Pass-through when [verify_gossip] is off — the default
   path admits gossip exactly as the paper does. *)
let with_verified t (p : Peer.t) k =
  if self_forgery t p then ()
  else if (not t.cfg.verify_gossip) || Nodeid.equal p.Peer.id t.me.Peer.id then k ()
  else
    let ps = peer t p.Peer.id in
    let verified = match ps.verified with Some addr -> addr = p.Peer.addr | None -> false in
    if verified then k ()
    else if ps.forged || ps.times.distrust_until > now t then ()
    else
      match ps.challenge with
      | Some nonce -> (
          match Hashtbl.find_opt t.id_challenges nonce with
          | Some c -> c.c_ks <- k :: c.c_ks
          | None -> ())
      | None ->
          let nonce = t.next_nonce in
          t.next_nonce <- nonce + 1;
          let c = { c_claimed = p; c_ks = [ k ]; c_timer = None } in
          Hashtbl.replace t.id_challenges nonce c;
          ps.challenge <- Some nonce;
          (* unanswered challenges (crashed peer, lost packet) just lapse:
             no admission, no penalty — the next advertisement retries *)
          c.c_timer <-
            Some
              (t.env.schedule ~delay:Config.t_out (fun () ->
                   Hashtbl.remove t.id_challenges nonce;
                   ps.challenge <- None));
          send_msg t p (M.Id_challenge { nonce })

let handle_id_response t ~sender ~nonce ~id =
  match Hashtbl.find_opt t.id_challenges nonce with
  | None -> ()
  | Some c ->
      cancel_timer t c.c_timer;
      Hashtbl.remove t.id_challenges nonce;
      let claimed = c.c_claimed in
      let ps = peer t claimed.Peer.id in
      ps.challenge <- None;
      if Nodeid.equal id claimed.Peer.id && sender.Peer.addr = claimed.Peer.addr
      then begin
        ps.verified <- Some claimed.Peer.addr;
        List.iter (fun k -> k ()) (List.rev c.c_ks)
      end
      else begin
        (* the node at that address cannot prove the advertised id: the
           entry was fabricated. Remember the forgery so repeated gossip
           cannot even cost us another challenge. *)
        ps.forged <- true;
        if traced t then
          emit_ev t
            (Obs.Event.Poison_rejected
               {
                 addr = t.me.Peer.addr;
                 claimed = Nodeid.to_hex claimed.Peer.id;
                 peer = claimed.Peer.addr;
               });
        t.env.on_poison_reject ~target:claimed.Peer.addr
      end

(* bounded join-rate admission (join_rate_limit): a sliding window of
   recent admissions by this node; when full, joins are deferred and the
   joiner's retry machinery comes back later — the sybil-flood analogue
   of backpressure's join deferral *)
let join_admission_ok t =
  t.cfg.join_rate_limit = 0
  ||
  let cutoff = now t -. Config.join_rate_window in
  while (not (Queue.is_empty t.join_admits)) && Queue.peek t.join_admits < cutoff do
    ignore (Queue.pop t.join_admits)
  done;
  Queue.length t.join_admits < t.cfg.join_rate_limit

let record_join_admit t =
  if t.cfg.join_rate_limit > 0 then Queue.push (now t) t.join_admits

let defer_join t (joiner : Peer.t) =
  if traced t then
    emit_ev t (Obs.Event.Join_deferred { addr = t.me.Peer.addr; joiner = joiner.Peer.addr })

(* ------------------------------------------------------------------ *)
(* Distance probing (PNS RTT measurement, §4.2)                        *)
(* ------------------------------------------------------------------ *)

let rec start_next_dprobe t =
  if
    t.alive
    && t.dprobes_running < Config.max_concurrent_distance_probes
    && not (Queue.is_empty t.dprobe_queue)
  then begin
    let thunk = Queue.pop t.dprobe_queue in
    thunk ();
    start_next_dprobe t
  end

and finish_dprobe t d =
  cancel_timer t d.d_finish;
  (peer t d.d_target.Peer.id).dprobe <- None;
  Hashtbl.iter (fun seq _ -> Hashtbl.remove t.dprobe_by_seq seq) d.d_sent_at;
  t.dprobes_running <- t.dprobes_running - 1;
  let result =
    match d.d_samples with
    | [] -> None
    | samples -> Some (Repro_util.Stats.median (Array.of_list samples))
  in
  (match result with
  | Some rtt when d.d_announce ->
      send_msg t d.d_target (M.Rtt_report { rtt })
  | Some _ | None -> ());
  d.d_on_done result;
  start_next_dprobe t

and launch_dprobe t target ~total ~announce ~on_done =
  let d =
    {
      d_target = target;
      d_total = total;
      d_announce = announce;
      d_on_done = on_done;
      d_samples = [];
      d_sent_at = Hashtbl.create 4;
      d_finish = None;
    }
  in
  (peer t target.Peer.id).dprobe <- Some d;
  t.dprobes_running <- t.dprobes_running + 1;
  emit_probe t target "distance";
  send_sample t d;
  for k = 1 to total - 1 do
    ignore (after t (float_of_int k *. Config.distance_probe_spacing) send_sample d)
  done;
  let finish_at = (float_of_int (total - 1) *. Config.distance_probe_spacing) +. Config.t_out in
  d.d_finish <- Some (after t finish_at finish_dprobe d)

and send_sample t d =
  let seq = t.next_dprobe_seq in
  t.next_dprobe_seq <- seq + 1;
  Hashtbl.replace d.d_sent_at seq (now t);
  Hashtbl.replace t.dprobe_by_seq seq d;
  send_msg t d.d_target (M.Distance_probe { probe_seq = seq })

and request_dprobe t target ~total ~announce ~on_done =
  let probing () = Option.is_some (peer t target.Peer.id).dprobe in
  if Nodeid.equal target.Peer.id t.me.Peer.id then on_done None
  else if probing () then on_done None
  else begin
    let start () =
      if probing () then on_done None else launch_dprobe t target ~total ~announce ~on_done
    in
    if t.dprobes_running < Config.max_concurrent_distance_probes then start ()
    else Queue.push start t.dprobe_queue
  end

(* Measure a routing-table candidate and install it under PNS rules.
   [fill_only] restricts probing to cases that add information (empty
   slot, or an installed-but-unmeasured entry); gossip contexts pass
   [fill_only:false] so closer candidates can displace occupants. A memo
   bounds how often any one peer is re-measured. *)
and maybe_measure ?(fill_only = false) t target ~announce =
  if
    (not (Nodeid.equal target.Peer.id t.me.Peer.id))
    && not (self_forgery t target)
  then begin
    let needed =
      match Routing_table.find t.table target.Peer.id with
      | Some e -> not (Float.is_finite e.Routing_table.rtt)
      | None -> (
          match Routing_table.slot_of t.table target.Peer.id with
          | None -> false
          | Some (r, c) -> (
              match Routing_table.get t.table r c with
              | None -> true
              | Some _ -> not fill_only))
    in
    (* measured recently, or quarantined *)
    let held_back () =
      match Nodeid.Tbl.find t.peers target.Peer.id with
      | ps ->
          let n = now t in
          n -. ps.times.last_measured < Config.rt_maintenance_period /. 2.0
          || suspected ps n
      | exception Not_found -> false
    in
    if needed && (not (held_back ())) && not (is_failed t target.Peer.id) then
      (* every routing-table ingestion funnels through here: with
         verify_gossip on, the advertised identity must prove itself
         before we spend distance probes on it (let alone install it) *)
      with_verified t target (fun () ->
          (peer t target.Peer.id).times.last_measured <- now t;
          request_dprobe t target ~total:Config.distance_probe_count ~announce
            ~on_done:(fun result ->
              match result with
              | Some rtt -> ignore (Routing_table.consider t.table target ~rtt)
              | None -> ()))
  end

(* ------------------------------------------------------------------ *)
(* Leaf-set probing and repair (Fig 2)                                  *)
(* ------------------------------------------------------------------ *)

let leaf_members_payload t = Leafset.members t.leafset
let failed_payload t = Hashtbl.fold (fun id () acc -> id :: acc) t.failed []

(* release a probe's slot: a reply, exhaustion, or for a routing-table
   probe any direct message from the peer ended it *)
let end_probe t ps st =
  cancel_timer t st.p_timer;
  match st.p_kind with
  | Ls ->
      ps.ls_probe <- None;
      t.ls_probing <- t.ls_probing - 1
  | Rt ->
      ps.rt_probe <- None;
      t.rt_probing <- t.rt_probing - 1

(* the one failure verdict, for an exhausted probe and for a Goodbye:
   evict [j] from the routing table, add it to Fig 2's failed_i, and feed
   the failure to µ's history (§4.1) *)
let declare_failed t (j : Peer.t) =
  ignore (Routing_table.remove t.table j.Peer.id);
  Hashtbl.replace t.failed j.Peer.id ();
  Tuning.record_failure t.tuning ~now:(now t)

(* Fig 2's leaf-set probe *)
let rec probe t (j : Peer.t) =
  if (not (Nodeid.equal j.Peer.id t.me.Peer.id)) && not (self_forgery t j) then
    start_probe t Ls j (peer t j.Peer.id)

(* a probe of [kind], unless [j] is failed or quarantined or a probe of
   it is out. A leaf-set probe may start while a routing-table probe is
   out, but not the reverse. *)
and start_probe t kind (j : Peer.t) ps =
  if
    Option.is_none ps.ls_probe
    && (match kind with Ls -> true | Rt -> Option.is_none ps.rt_probe)
    && (not (is_failed t j.Peer.id))
    && not (suspected ps (now t))
  then begin
    let st = { p_kind = kind; p_peer = j; p_retries = 0; p_timer = None } in
    (match kind with
    | Ls ->
        ps.ls_probe <- Some st;
        t.ls_probing <- t.ls_probing + 1
    | Rt ->
        ps.rt_probe <- Some st;
        t.rt_probing <- t.rt_probing + 1);
    emit_probe t j (match kind with Ls -> "leafset" | Rt -> "rt");
    send_probe t st
  end

and probe_copies t retries =
  (* escalating volley: retry [k] goes out as [probe_volley^k]
     back-to-back copies (replies are idempotent, any one proves
     liveness). The first transmission always costs one packet; only
     retries — already evidence of a possible loss burst — escalate, so
     the common case is untaxed while an exhausted episode has pushed
     enough packets through the link to outlast a burst. *)
  let rec pow acc n = if n <= 0 then acc else pow (acc * t.cfg.probe_volley) (n - 1) in
  (* backpressure: volleys multiply traffic exactly when the local queue
     is already saturated — collapse them to single packets under
     overload *)
  if overloaded t then 1 else min 512 (pow 1 retries)

and send_probe t st =
  let target = st.p_peer.Peer.id in
  let payload =
    match st.p_kind with
    | Ls ->
        M.Ls_probe
          { leaf = leaf_members_payload t; failed = failed_payload t; trt = t.local_trt; target }
    | Rt -> M.Rt_probe { target }
  in
  for _ = 1 to probe_copies t st.p_retries do
    send_msg t st.p_peer payload
  done;
  st.p_timer <- Some (after t Config.t_out probe_timeout st)

and probe_timeout t st =
  let j = st.p_peer in
  let ps = peer t j.Peer.id in
  if Option.is_some (match st.p_kind with Ls -> ps.ls_probe | Rt -> ps.rt_probe) then begin
    if st.p_retries < Config.max_probe_retries then begin
      st.p_retries <- st.p_retries + 1;
      send_probe t st
    end
    else begin
      end_probe t ps st;
      match st.p_kind with
      | Ls ->
          let was_member = Leafset.remove t.leafset j.Peer.id in
          declare_failed t j;
          quarantine t j;
          (* §4.1: announce a confirmed leaf-set failure to the other
             members, which both informs them and solicits replacement
             candidates *)
          if was_member && t.active then
            List.iter (fun m -> probe t m) (Leafset.members t.leafset);
          done_probing t
      | Rt ->
          declare_failed t j;
          (* repair is lazy: periodic maintenance and passive repair
             refill the slot. A leaf member escalates to the leaf-set
             machinery instead of being quarantined (suspicion waits for
             the leaf probe's own verdict, which it would otherwise
             gate). *)
          if Leafset.mem t.leafset j.Peer.id then begin
            unfail t j.Peer.id;
            probe t j
          end
          else quarantine t j
    end
  end

and done_probing t =
  if t.ls_probing = 0 then begin
    if Leafset.complete t.leafset then begin
      Hashtbl.reset t.failed;
      if not t.active then activate t
    end
    else schedule_repair t
  end

and schedule_repair t =
  if not t.repair_scheduled then begin
    t.repair_scheduled <- true;
    ignore
      (t.env.schedule ~delay:Config.repair_delay (fun () ->
           t.repair_scheduled <- false;
           if t.alive then repair t))
  end

and repair t =
  if t.ls_probing = 0 && not (Leafset.complete t.leafset) then begin
    let half = t.cfg.l / 2 in
    (* sides that still have members: iterate outwards (Fig 2) *)
    (match Leafset.leftmost t.leafset with
    | Some lm when Leafset.left_size t.leafset < half -> probe t lm
    | Some _ | None -> ());
    (match Leafset.rightmost t.leafset with
    | Some rm when Leafset.right_size t.leafset < half -> probe t rm
    | Some _ | None -> ());
    (* generalized repair: an empty side is reseeded from the routing
       table (converges in O(log N) rounds after mass failures) *)
    let known () =
      Routing_table.peers t.table @ Leafset.members t.leafset
      |> List.filter (fun p ->
             (not (Nodeid.equal p.Peer.id t.me.Peer.id)) && not (is_failed t p.Peer.id))
    in
    (* the known peer nearest in one direction; the first wins ties *)
    let nearest cmp =
      List.fold_left
        (fun acc p ->
          match acc with
          | Some b when cmp b.Peer.id p.Peer.id <= 0 -> acc
          | _ -> Some p)
        None (known ())
    in
    if Leafset.left_size t.leafset = 0 then begin
      match nearest (Nodeid.compare_ccw_dist ~from:t.me.Peer.id) with
      | Some p -> send_msg t p (M.Repair_request { left_side = true })
      | None -> ()
    end;
    if Leafset.right_size t.leafset = 0 then begin
      match nearest (Nodeid.compare_cw_dist ~from:t.me.Peer.id) with
      | Some p -> send_msg t p (M.Repair_request { left_side = false })
      | None -> ()
    end
  end

(* ------------------------------------------------------------------ *)
(* Routing-table liveness probing (§3.2) and suspicion                  *)
(* ------------------------------------------------------------------ *)

and rt_probe t (j : Peer.t) =
  if not (Nodeid.equal j.Peer.id t.me.Peer.id) then start_probe t Rt j (peer t j.Peer.id)

(* negative caching: quarantine a peer that exhausted probe retries.
   Gossip cannot reinstall it (probe/admission gates check [suspected])
   until the backoff expires, and each relapse doubles the backoff. Only
   a direct message from the peer ([note_alive]) clears the entry. At
   expiry the node re-verifies the peer itself instead of waiting for
   gossip to name it, which may never happen once every neighbour
   evicted it: a successful probe re-admits via the normal
   [handle_ls_probe] path, an exhausted one relapses. Once the backoff
   is maxed out, only peers that would still matter to the leaf set keep
   being revalidated — confirmed-dead strangers stay quarantined
   passively. *)
and quarantine t (j : Peer.t) =
  let ps = peer t j.Peer.id in
  let backoff =
    match ps.susp with
    | Some s -> Float.min Config.suspicion_backoff_max (2.0 *. s.s_backoff)
    | None -> Config.suspicion_backoff
  in
  let expiry = now t +. backoff in
  ps.susp <- Some { s_until = expiry; s_backoff = backoff };
  if traced t then
    emit_ev t (Obs.Event.Suspected { addr = t.me.Peer.addr; target = j.Peer.addr; backoff });
  t.env.on_suspicion ~target:j.Peer.addr;
  ignore (after t (backoff +. 0.01) revalidate (j, expiry))

and revalidate t ((j : Peer.t), expiry) =
  match (peer t j.Peer.id).susp with
  | Some s
    when Float.equal s.s_until expiry
         && (s.s_backoff < Config.suspicion_backoff_max
             || Leafset.would_admit t.leafset j.Peer.id) ->
      (* the [failed] entry would gate the probe; this IS the retry *)
      unfail t j.Peer.id;
      probe t j
  | Some _ | None -> ()

(* a direct message from [sender] is proof of liveness: resolve suspicion *)
and note_alive t (sender : Peer.t) =
  let ps = peer t sender.Peer.id in
  ps.times.last_heard <- now t;
  ps.times.excluded_until <- neg_infinity;
  unfail t sender.Peer.id;
  (match ps.susp with
  | Some _ ->
      ps.susp <- None;
      if traced t then
        emit_ev t
          (Obs.Event.Unsuspected { addr = t.me.Peer.addr; target = sender.Peer.addr })
  | None -> ());
  match ps.rt_probe with Some st -> end_probe t ps st | None -> ()

(* ------------------------------------------------------------------ *)
(* Routed messages, per-hop acks (§3.2)                                 *)
(* ------------------------------------------------------------------ *)

(* excluded after a missed ack, failed, suspected or distrusted *)
and routed_excluded t id =
  match Nodeid.Tbl.find t.peers id with
  | ps ->
      let n = now t in
      ps.times.excluded_until > n
      || is_failed t id
      || suspected ps n
      || ps.times.distrust_until > n
  | exception Not_found -> is_failed t id

and send_routed t (next : Peer.t) payload ~key ~reroutes =
  if t.cfg.per_hop_acks then begin
    let hop_id = t.next_hop_id in
    t.next_hop_id <- hop_id + 1;
    let ph =
      {
        h_payload = payload;
        h_key = key;
        h_dst = next;
        h_sent_at = now t;
        h_reroutes = reroutes;
        h_timer = None;
      }
    in
    Hashtbl.replace t.pending hop_id ph;
    let rto = Rto.timeout (rto_of (peer t next.Peer.id)) in
    ph.h_timer <- Some (after t rto hop_timeout hop_id);
    send_msg ~hop:hop_id t next payload
  end
  else send_msg t next payload

and hop_timeout t hop_id =
  match Hashtbl.find_opt t.pending hop_id with
  | None -> ()
  | Some ph ->
      Hashtbl.remove t.pending hop_id;
      let j = ph.h_dst in
      if traced t then
        emit_ev t
          (Obs.Event.Ack_timeout
             {
               addr = t.me.Peer.addr;
               dst = j.Peer.addr;
               waited = now t -. ph.h_sent_at;
               reroutes = ph.h_reroutes;
             });
      (* temporarily exclude the silent node and check on it; only the
         probe machinery may declare it faulty *)
      (peer t j.Peer.id).times.excluded_until <- now t +. Config.exclusion_period;
      if Leafset.mem t.leafset j.Peer.id then probe t j else rt_probe t j;
      (* past the reroute budget the message is lost *)
      if ph.h_reroutes < t.cfg.max_hop_reroutes then
        route_payload t (mark_retx ph.h_payload) ~key:ph.h_key ~reroutes:(ph.h_reroutes + 1)

and mark_retx = function
  | M.Lookup l -> M.Lookup { l with retx = true }
  | other -> other

and bump_hops = function
  | M.Lookup l -> M.Lookup { l with hops = l.hops + 1 }
  | other -> other

(* route a payload from this node: Fig 2's route_i. [prev] is the hop a
   routed message arrived from (None at the origin or on local retries) —
   it feeds the common-API forward upcall. A [Redirect] goes out as a
   routed hop (acked, hop count advanced) but is no routing decision of
   ours: no [Lookup_hop] event, no passive repair, no progress check. *)
and route_payload ?prev t payload ~key ~reroutes =
  let decision =
    match payload with
    | M.Lookup l -> t.env.forward ~prev l
    | _ -> Continue
  in
  match decision with
  | Absorb -> ()
  | Redirect next -> send_routed t next (bump_hops payload) ~key ~reroutes
  | Continue -> (
  (match (prev, payload) with
  | Some p, M.Lookup l -> check_progress t ~prev:p l
  | _ -> ());
  let hop, rule =
    Route.next_hop_explained ~excluded:(routed_excluded t) ~leafset:t.leafset
      ~table:t.table ~key ()
  in
  (match payload with
  | M.Lookup l when traced t ->
      let stage =
        match rule with
        | Route.Via_leafset -> Obs.Event.Leafset
        | Route.Via_table -> Obs.Event.Table
        | Route.Via_closest -> Obs.Event.Closest
      in
      emit_ev t
        (Obs.Event.Lookup_hop
           { seq = l.M.seq; addr = t.me.Peer.addr; stage; hops = l.M.hops; retx = l.M.retx })
  | _ -> ());
  match hop with
  | Route.Deliver -> receive_root t payload ~key ~reroutes
  | Route.Forward next ->
      (* origin-side diversion state: remember the first hop of each
         lookup attempt so an end-to-end timeout can route the retry
         around it (progress_check) *)
      (if t.cfg.progress_check then
         match payload with
         | M.Lookup l when Nodeid.equal l.M.origin.Peer.id t.me.Peer.id -> (
             match Hashtbl.find_opt t.e2e l.M.seq with
             | Some st when st.e_first_hop = None -> st.e_first_hop <- Some next
             | Some _ | None -> ())
         | _ -> ());
      (* passive routing-table repair: if our own slot for this key is
         empty, ask the next hop for its entry *)
      (match Route.empty_slot_on_path ~leafset:t.leafset ~table:t.table ~key with
      | Some (row, col) when t.active -> send_msg t next (M.Slot_request { row; col })
      | Some _ | None -> ());
      send_routed t next (bump_hops payload) ~key ~reroutes)

and receive_root t payload ~key ~reroutes =
  match payload with
  | M.Lookup l ->
      (* consistency guard: per-hop-ack exclusions steer *forwarding* but
         must never make us deliver a key whose root (per the unexcluded
         leaf set) is someone else — a lost ack would otherwise cause an
         inconsistent delivery. Retry shortly: either the excluded root
         answers its liveness probe (and the retry reaches it), or it is
         declared faulty and evicted, making us the genuine root. *)
      let owner = Leafset.closest t.leafset key in
      if
        (not (Nodeid.equal owner.Peer.id t.me.Peer.id))
        && reroutes <= t.cfg.root_retries
        && reroutes < t.cfg.max_hop_reroutes
      then begin
        (* the leaf set still names someone else as the root: bypass the
           exclusion and retransmit straight to it with growing backoff —
           a lost ack recovers in one extra round-trip. Only after
           [root_retries] attempts does the local node deliver in the
           root's stead (§3.2's consistency/latency dial). *)
        ignore (after t (0.5 *. float_of_int reroutes) retry_root (payload, key, reroutes + 1))
      end
      else begin
        let sides_ok =
          Leafset.left_size t.leafset = 0 = (Leafset.right_size t.leafset = 0)
        in
        if t.active && sides_ok then deliver_at_root t l
        else push_buffer t payload ~key
      end
  | M.Join_request { joiner; rows } ->
      if Nodeid.equal joiner.Peer.id t.me.Peer.id then ()
        (* admission control: under overload the root defers the join —
           the joiner's retry timer re-attempts once the crowd thins *)
      else if overloaded t then ()
        (* bounded join rate per arc: a sybil flood aimed at this arc
           drains the window and further joiners are deferred *)
      else if not (join_admission_ok t) then defer_join t joiner
      else if t.active then begin
        record_join_admit t;
        let rows = own_rows_from t (Nodeid.shared_prefix_length ~b:t.cfg.b t.me.Peer.id joiner.Peer.id) @ rows in
        let leaf = t.me :: leaf_members_payload t in
        send_msg t joiner (M.Join_reply { rows; leaf })
      end
      else push_buffer t payload ~key
  | _ -> ()

and retry_root t (payload, key, reroutes) =
  let owner = Leafset.closest t.leafset key in
  if Nodeid.equal owner.Peer.id t.me.Peer.id then receive_root t payload ~key ~reroutes
  else send_routed t owner (mark_retx payload) ~key ~reroutes

(* deliver a lookup we are the root for. With end-to-end retries on, the
   root also suppresses duplicate deliveries (per-hop retransmissions
   after a lost ack, and the origin's own e2e re-issues, both produce
   copies) and returns a delivery receipt so the origin can stand down. *)
and deliver_at_root t (l : M.lookup) =
  if t.cfg.e2e_lookup_retries > 0 then begin
    let k = (l.M.origin.Peer.addr, l.M.seq) in
    if not (Hashtbl.mem t.delivered_seqs k) then begin
      Hashtbl.replace t.delivered_seqs k ();
      t.env.deliver l
    end;
    send_msg t l.M.origin (M.Lookup_ack { seq = l.M.seq })
  end
  else t.env.deliver l

(* routing-table row [r] as gossiped: (peer, rtt) pairs *)
and row_payload t r =
  Routing_table.row_entries t.table r
  |> List.map (fun e -> (e.Routing_table.peer, e.Routing_table.rtt))

and own_rows_from t r0 =
  let acc = ref [] in
  for r = Routing_table.used_rows t.table - 1 downto r0 do
    let entries = row_payload t r in
    if entries <> [] then acc := (r, entries) :: !acc
  done;
  !acc

and push_buffer t payload ~key =
  if List.length t.buffer >= 1000 then begin
    (* drop the oldest entry (tail of the newest-first list) *)
    match List.rev t.buffer with _ :: rest -> t.buffer <- List.rev rest | [] -> ()
  end;
  (* newest first; flush reverses to preserve arrival order *)
  t.buffer <- { bf_payload = payload; bf_key = key; bf_attempts = 0 } :: t.buffer

and flush_buffer t =
  if t.active && t.buffer <> [] then begin
    let entries = List.rev t.buffer in
    t.buffer <- [];
    List.iter
      (fun e ->
        e.bf_attempts <- e.bf_attempts + 1;
        (* an entry still unroutable after 60 attempts is dropped *)
        if e.bf_attempts <= 60 then route_payload t e.bf_payload ~key:e.bf_key ~reroutes:0)
      entries;
    if t.buffer <> [] then ignore (after t 1.0 (fun t () -> flush_buffer t) ())
  end

(* ------------------------------------------------------------------ *)
(* Activation and periodic maintenance                                  *)
(* ------------------------------------------------------------------ *)

and activate t =
  if not t.active then begin
    t.active <- true;
    (match t.join_timer with
    | Some ev ->
        t.env.cancel ev;
        t.join_timer <- None
    | None -> ());
    Hashtbl.reset t.failed;
    if not t.was_active then begin
      t.was_active <- true;
      if traced t then emit_ev t (Obs.Event.Node_join { addr = t.me.Peer.addr });
      t.env.on_active ();
      announce_rows t;
      start_periodics t
    end;
    flush_buffer t
  end

and announce_rows t =
  (* §2: after initializing its table, the joiner sends row r to every
     node in that row (announcing itself and gossiping the row) *)
  for r = 0 to Routing_table.used_rows t.table - 1 do
    let entries = row_payload t r in
    List.iter (fun (p, _) -> send_msg t p (M.Row_announce { row = r; entries })) entries
  done

(* [round t] every [period t] seconds while the node is active, the
   first time after a random fraction of a period; a dead node's ticks
   stop *)
and every t ~period round =
  let rec tick () =
    if t.alive then begin
      if t.active then round t;
      ignore (t.env.schedule ~delay:(period t) tick)
    end
  in
  ignore (t.env.schedule ~delay:(Rng.float t.env.rng (period t)) tick)

and start_periodics t =
  (* leaf-set heartbeats *)
  every t ~period:(fun _ -> Config.t_ls) heartbeat_round;
  (* routing-table liveness probing: each entry is probed every Trt
     seconds; the scan itself runs more often so that a freshly lowered
     Trt takes effect promptly *)
  if t.cfg.active_probing then
    every t ~period:(fun t -> Float.max 1.0 (Float.min 60.0 (t.trt /. 4.0))) rt_probe_round;
  (* periodic routing-table maintenance gossip *)
  every t ~period:(fun _ -> Config.rt_maintenance_period) maintenance_round;
  (* self-tuning refresh *)
  every t ~period:(fun _ -> Config.tuning_refresh_period) tune_round

and tune_round t =
  let m = m_unique t in
  t.local_trt <- Tuning.local_trt t.tuning ~leafset:t.leafset ~m ~now:(now t);
  t.trt <- Tuning.current_trt t.tuning ~local:t.local_trt

and heartbeat_round t =
  let n = now t in
  if t.cfg.exploit_structure then begin
    (* single heartbeat to the left ring neighbour (§4.1) *)
    (match Leafset.left_neighbor t.leafset with
    | Some ln ->
        let fresh =
          match Nodeid.Tbl.find t.peers ln.Peer.id with
          | ps -> n -. ps.times.last_sent < Config.t_ls
          | exception Not_found -> false
        in
        if not fresh then send_msg t ln M.Heartbeat
    | None -> ());
    (* watch the right neighbour *)
    match Leafset.right_neighbor t.leafset with
    | Some rn ->
        let changed =
          match t.prev_right with
          | Some id -> not (Nodeid.equal id rn.Peer.id)
          | None -> true
        in
        if changed then begin
          t.prev_right <- Some rn.Peer.id;
          t.right_since <- n
        end;
        let heard =
          match Nodeid.Tbl.find t.peers rn.Peer.id with
          | ps -> ps.times.last_heard
          | exception Not_found -> neg_infinity
        in
        let last = Float.max t.right_since heard in
        if n -. last > Config.t_ls +. Config.t_out then probe t rn
    | None -> ()
  end
  else
    (* baseline: probe every leaf-set member each period *)
    List.iter
      (fun m ->
        let fresh =
          match Nodeid.Tbl.find t.peers m.Peer.id with
          | ps -> n -. ps.times.last_heard < Config.t_ls
          | exception Not_found -> false
        in
        if not fresh then probe t m)
      (Leafset.members t.leafset)

and rt_probe_round t =
  (* backpressure: routing-table probing is deferrable — skip the round
     under overload; the scan tick retries shortly *)
  if overloaded t then ()
  else begin
  let n = now t in
  Routing_table.iter
    (fun (e : Routing_table.entry) ->
      (* table entries are never [me], so this is [rt_probe] without
         its self check *)
      let j = e.Routing_table.peer in
      let ps = peer t j.Peer.id in
      let fresh = n -. ps.times.last_heard < t.trt in
      let recently_probed = n -. ps.times.last_rt_probe < t.trt in
      if (not fresh) && not recently_probed then begin
        ps.times.last_rt_probe <- n;
        start_probe t Rt j ps
      end)
    t.table
  end

and maintenance_round t =
  (* backpressure: maintenance gossip is the most deferrable traffic of
     all — skip the round under overload; the next tick retries *)
  if overloaded t then ()
  else
    (* ask one node per row for its matching row; probe unknown entries *)
    for r = 0 to Routing_table.used_rows t.table - 1 do
      match Routing_table.row_entries t.table r with
      | [] -> ()
      | entries ->
          let arr = Array.of_list entries in
          let e = Rng.pick t.env.rng arr in
          send_msg t e.Routing_table.peer (M.Row_request { row = r })
    done

(* ------------------------------------------------------------------ *)
(* Join (§2, Fig 2)                                                     *)
(* ------------------------------------------------------------------ *)

and bootstrap t =
  if not t.was_active then activate t

and join t ~bootstrap_addr =
  t.bootstrap_addr <- bootstrap_addr;
  start_join_attempt t

and start_join_attempt t =
  if t.alive && not t.active then begin
    t.nn <-
      Some
        {
          nn_outstanding = 0;
          nn_best = None;
          nn_best_rtt = infinity;
          nn_rounds = 0;
          nn_fallback = None;
        };
    t.join_reply_seen <- false;
    (* the bootstrap address is all we know; its id arrives in the reply *)
    t.env.send ~dst:t.bootstrap_addr (M.make ~sender:t.me M.Nn_request);
    (match t.join_timer with Some ev -> t.env.cancel ev | None -> ());
    t.join_timer <-
      Some
        (t.env.schedule ~delay:Config.join_retry_period (fun () ->
             if t.alive && not t.active then begin
               t.join_retries <- t.join_retries + 1;
               if t.join_retries > Config.max_join_retries then begin
                 t.alive <- false;
                 t.env.on_join_failed ()
               end
               else start_join_attempt t
             end))
  end

and nn_probe_done t nn peer result =
  nn.nn_outstanding <- nn.nn_outstanding - 1;
  (match result with
  | Some rtt when rtt < nn.nn_best_rtt ->
      nn.nn_best <- Some peer;
      nn.nn_best_rtt <- rtt
  | Some _ | None -> ());
  if nn.nn_outstanding <= 0 then nn_round_complete t nn

and nn_round_complete t nn =
  if t.alive && not t.active && not t.join_reply_seen then begin
    match (nn.nn_best, nn.nn_fallback) with
    | None, None -> () (* nothing answered; the join timer retries *)
    | None, Some seed -> send_join_request t seed
    | Some best, fallback ->
        (* greedy descent: recurse into the closest node found, unless we
           already asked it (no improvement) or rounds are exhausted *)
        let same_as_asked =
          match fallback with
          | Some f -> Nodeid.equal f.Peer.id best.Peer.id
          | None -> false
        in
        if nn.nn_rounds < 3 && not same_as_asked then begin
          nn.nn_rounds <- nn.nn_rounds + 1;
          send_msg t best M.Nn_request
        end
        else send_join_request t best
  end

and send_join_request t seed =
  t.nn <- None;
  send_msg t seed (M.Join_request { joiner = t.me; rows = [] })

(* ------------------------------------------------------------------ *)
(* Message dispatch                                                     *)
(* ------------------------------------------------------------------ *)

and handle t ~src:_ (msg : M.t) =
  if t.alive then begin
    let sender = msg.M.sender in
    note_alive t sender;
    (match msg.M.hop with
    | Some hop_id -> send_msg t sender (M.Hop_ack { hop_id })
    | None -> ());
    match msg.M.payload with
    | M.Lookup l -> route_payload ~prev:sender t (M.Lookup l) ~key:l.M.key ~reroutes:0
    | M.Lookup_ack { seq } -> handle_lookup_ack t seq
    | M.Hop_ack { hop_id } -> handle_hop_ack t hop_id
    | M.Join_request { joiner; rows } ->
        (* admission control: refuse to forward join traffic under
           overload (the joiner retries later) *)
        if not (overloaded t) then handle_join_request t ~sender ~joiner ~rows
    | M.Join_reply { rows; leaf } -> handle_join_reply t ~rows ~leaf
    | M.Ls_probe { leaf; failed; trt; _ } ->
        handle_ls_probe t ~sender ~leaf ~failed ~trt ~is_reply:false
    | M.Ls_probe_reply { leaf; failed; trt } ->
        handle_ls_probe t ~sender ~leaf ~failed ~trt ~is_reply:true
    | M.Heartbeat -> () (* note_alive already recorded it *)
    | M.Rt_probe _ -> send_msg t sender (M.Rt_probe_reply { trt = t.local_trt })
    | M.Rt_probe_reply { trt } -> Tuning.observe_remote t.tuning trt
    | M.Distance_probe { probe_seq } ->
        send_msg t sender (M.Distance_probe_reply { probe_seq })
    | M.Distance_probe_reply { probe_seq } -> handle_dprobe_reply t probe_seq
    | M.Rtt_report { rtt } ->
        (* symmetric PNS: the peer measured us; consider it at that cost.
           The sender's address is transport-authentic but its claimed id
           is not — verify before installing (verify_gossip) *)
        with_verified t sender (fun () ->
            ignore (Routing_table.consider t.table sender ~rtt))
    | M.Row_announce { row = _; entries } ->
        List.iter (fun (p, _) -> maybe_measure t p ~announce:true) entries
    | M.Row_request { row } -> send_msg t sender (M.Row_reply { row; entries = row_payload t row })
    | M.Row_reply { row = _; entries } ->
        List.iter (fun (p, _) -> maybe_measure t p ~announce:true) entries
    | M.Slot_request { row; col } ->
        let entry =
          match Routing_table.get t.table row col with
          | Some e -> Some (e.Routing_table.peer, e.Routing_table.rtt)
          | None -> None
        in
        send_msg t sender (M.Slot_reply { row; col; entry })
    | M.Slot_reply { entry; _ } -> (
        match entry with
        | Some (p, _) -> maybe_measure t p ~announce:true
        | None -> ())
    | M.Repair_request { left_side = _ } ->
        let cands =
          t.me :: (Routing_table.peers t.table @ Leafset.members t.leafset)
          |> List.sort_uniq (fun a b -> Nodeid.compare a.Peer.id b.Peer.id)
          |> List.filter (fun p -> not (Nodeid.equal p.Peer.id sender.Peer.id))
          |> List.sort (fun a b ->
                 Nodeid.compare_ring_dist ~key:sender.Peer.id a.Peer.id b.Peer.id)
        in
        send_msg t sender
          (M.Repair_reply { candidates = Repro_util.Listx.take (t.cfg.l + 1) cands })
    | M.Repair_reply { candidates } ->
        List.iter
          (fun p ->
            if Leafset.would_admit t.leafset p.Peer.id && not (is_failed t p.Peer.id)
            then probe t p)
          candidates;
        if t.ls_probing = 0 then done_probing t
    | M.Goodbye ->
        (* the sender vouches for its own departure: evict immediately and
           start repair, skipping probe verification *)
        ignore (Leafset.remove t.leafset sender.Peer.id);
        declare_failed t sender;
        if t.ls_probing = 0 then done_probing t
    | M.Nn_request ->
        (* admission control: seed discovery is the front door of a join
           — under overload (or a drained join-rate window), stay silent
           and let the joiner retry *)
        if overloaded t then ()
        else if not (join_admission_ok t) then defer_join t sender
        else send_msg t sender (M.Nn_reply { leaf = leaf_members_payload t })
    | M.Nn_reply { leaf } -> handle_nn_reply t ~sender ~leaf
    | M.Id_challenge { nonce } ->
        (* certified-nodeId model: the only identifier we can prove is
           our genuine one — an adversary answering a challenge for a
           forged advertisement exposes the forgery by construction *)
        send_msg t sender (M.Id_response { nonce; id = t.me.Peer.id })
    | M.Id_response { nonce; id } -> handle_id_response t ~sender ~nonce ~id
  end

and handle_hop_ack t hop_id =
  match Hashtbl.find_opt t.pending hop_id with
  | None -> ()
  | Some ph ->
      cancel_timer t ph.h_timer;
      Hashtbl.remove t.pending hop_id;
      let rtt = now t -. ph.h_sent_at in
      if traced t then
        emit_ev t
          (Obs.Event.Hop_ack { addr = t.me.Peer.addr; dst = ph.h_dst.Peer.addr; rtt });
      Rto.observe (rto_of (peer t ph.h_dst.Peer.id)) rtt

and handle_dprobe_reply t probe_seq =
  match Hashtbl.find_opt t.dprobe_by_seq probe_seq with
  | None -> ()
  | Some d -> (
      Hashtbl.remove t.dprobe_by_seq probe_seq;
      match Hashtbl.find_opt d.d_sent_at probe_seq with
      | None -> ()
      | Some sent ->
          Hashtbl.remove d.d_sent_at probe_seq;
          d.d_samples <- (now t -. sent) :: d.d_samples;
          if List.length d.d_samples >= d.d_total then finish_dprobe t d)

and handle_join_request t ~sender:_ ~joiner ~rows =
  if Nodeid.equal joiner.Peer.id t.me.Peer.id then
    (* our own request was routed back to us (someone already gossiped our
       id); the join retry timer will take another attempt *)
    ()
  else begin
    (* contribute our row matching the joiner's prefix, then route on *)
    let r = Nodeid.shared_prefix_length ~b:t.cfg.b t.me.Peer.id joiner.Peer.id in
    let entries = if r >= Routing_table.rows t.table then [] else row_payload t r in
    let rows = if entries = [] then rows else (r, entries) :: rows in
    route_payload t (M.Join_request { joiner; rows }) ~key:joiner.Peer.id ~reroutes:0
  end

and handle_join_reply t ~rows ~leaf =
  if (not t.active) && not t.join_reply_seen then begin
    t.join_reply_seen <- true;
    t.nn <- None;
    (* install the gathered rows; RTTs from other vantage points are not
       ours, so entries start unmeasured and are probed (§4.2) *)
    List.iter
      (fun (_, entries) ->
        List.iter
          (fun ((p : Peer.t), _claimed) ->
            if
              (not (Nodeid.equal p.Peer.id t.me.Peer.id))
              && not (self_forgery t p)
            then begin
              (match Routing_table.find t.table p.Peer.id with
              | None -> (
                  match Routing_table.slot_of t.table p.Peer.id with
                  | Some (r, c) when Routing_table.get t.table r c = None ->
                      ignore (Routing_table.set t.table p ~rtt:infinity)
                  | Some _ | None -> ())
              | Some _ -> ());
              maybe_measure t p ~announce:true
            end)
          entries)
      rows;
    (* Fig 2: add the leaf-set candidates, then probe every member *)
    List.iter
      (fun p -> if not (self_forgery t p) then ignore (Leafset.add t.leafset p))
      leaf;
    List.iter (fun p -> maybe_measure ~fill_only:true t p ~announce:true) leaf;
    let members = Leafset.members t.leafset in
    if members = [] then
      (* the root knew nobody: we are the second node; probe the root *)
      ()
    else List.iter (fun p -> probe t p) members;
    if t.ls_probing = 0 then done_probing t
  end

and handle_ls_probe t ~sender ~leaf ~failed ~trt ~is_reply =
  Tuning.observe_remote t.tuning trt;
  (* Fig 2 RECEIVE(LS-PROBE | LS-PROBE-REPLY). The probe itself is the
     sender's proof of liveness, so it is admitted without the
     anti-bounce probe — which makes a forged sender the eclipse
     attack's entry point. verify_gossip closes it: admission waits for
     a direct identity challenge of the advertised (id, address) pair. *)
  with_verified t sender (fun () ->
      unfail t sender.Peer.id;
      ignore (Leafset.add t.leafset sender);
      maybe_measure ~fill_only:true t sender ~announce:true);
  (* verify claimed failures of our own members before evicting them *)
  List.iter
    (fun id ->
      if Leafset.mem t.leafset id then begin
        match
          List.find_opt (fun p -> Nodeid.equal p.Peer.id id) (Leafset.members t.leafset)
        with
        | Some p ->
            ignore (Leafset.remove t.leafset id);
            probe t p
        | None -> ()
      end)
    failed;
  (* candidates from the sender's leaf set: probe before admission (the
     anti-bounce rule: never insert a node we have not heard from) *)
  List.iter
    (fun (p : Peer.t) ->
      if
        (not (is_failed t p.Peer.id))
        && (not (Nodeid.equal p.Peer.id t.me.Peer.id))
        && Leafset.would_admit t.leafset p.Peer.id
      then probe t p)
    leaf;
  if not is_reply then
    send_msg t sender
      (M.Ls_probe_reply
         { leaf = leaf_members_payload t; failed = failed_payload t; trt = t.local_trt })
  else begin
    let ps = peer t sender.Peer.id in
    match ps.ls_probe with
    | Some st ->
        end_probe t ps st;
        done_probing t
    | None -> ()
  end

and handle_nn_reply t ~sender ~leaf =
  match t.nn with
  | None -> ()
  | Some nn ->
      (* ignore duplicate replies while a probing round is in flight —
         resetting the outstanding count mid-round would let the round
         complete on partial RTT data *)
      if (not t.join_reply_seen) && nn.nn_outstanding <= 0 then begin
        nn.nn_fallback <- Some sender;
        let targets =
          sender :: leaf
          |> List.sort_uniq (fun a b -> Nodeid.compare a.Peer.id b.Peer.id)
          |> List.filter (fun p -> not (Nodeid.equal p.Peer.id t.me.Peer.id))
        in
        if targets = [] then send_join_request t sender
        else begin
          nn.nn_outstanding <- List.length targets;
          (* single-sample probes: §4.2's cheap nearest-neighbour mode *)
          List.iter
            (fun p ->
              request_dprobe t p ~total:1 ~announce:false ~on_done:(fun r ->
                  match t.nn with
                  | Some nn' when nn' == nn -> nn_probe_done t nn p r
                  | Some _ | None -> ()))
            targets
        end
      end

(* Recipient-side progress check (progress_check): every honest routing
   rule strictly lengthens the shared prefix with the key (table hop) or
   strictly wins {!Nodeid.closer} (leaf-set / closest hop), so a forward
   that does neither is evidence the previous hop misrouted. The message
   itself is still routed on correctly — detection must not turn one bad
   hop into a loss. *)
and check_progress t ~prev (l : M.lookup) =
  if t.cfg.progress_check && not (Nodeid.equal prev.Peer.id t.me.Peer.id) then begin
    let key = l.M.key in
    let progressed =
      Nodeid.shared_prefix_length ~b:t.cfg.b key t.me.Peer.id
        > Nodeid.shared_prefix_length ~b:t.cfg.b key prev.Peer.id
      || Nodeid.closer ~key t.me.Peer.id prev.Peer.id
    in
    if not progressed then distrust_peer t prev ~seq:l.M.seq ~hops:l.M.hops
  end

and lookup t ~key ~seq =
  let payload = M.Lookup { key; seq; origin = t.me; hops = 0; retx = false } in
  if t.cfg.e2e_lookup_retries > 0 then install_e2e t ~key ~seq;
  route_payload t payload ~key ~reroutes:0

(* ------------------------------------------------------------------ *)
(* End-to-end lookup retries at the origin                              *)
(* ------------------------------------------------------------------ *)

(* first timeout: twice the expected route time under the initial
   per-hop RTO, from the leaf-set density estimate of N (the same
   estimator the self-tuning uses) — deterministic, no RTT history *)
and install_e2e t ~key ~seq =
  let cols = float_of_int (1 lsl t.cfg.b) in
  let hops_est =
    1.0 +. (Float.log (Float.max cols (estimated_n t)) /. Float.log cols)
  in
  let timeout =
    Float.max Config.e2e_timeout_min (2.0 *. hops_est *. Config.hop_rto_initial)
  in
  let st =
    { e_key = key; e_attempt = 0; e_timeout = timeout; e_timer = None; e_first_hop = None }
  in
  Hashtbl.replace t.e2e seq st;
  arm_e2e t seq st

and arm_e2e t seq st = st.e_timer <- Some (after t st.e_timeout e2e_timeout seq)

and e2e_timeout t seq =
  match Hashtbl.find_opt t.e2e seq with
  | None -> ()
  | Some st ->
      if st.e_attempt >= t.cfg.e2e_lookup_retries then Hashtbl.remove t.e2e seq
      else begin
        st.e_attempt <- st.e_attempt + 1;
        st.e_timeout <- 2.0 *. st.e_timeout;
        (* diversion around the suspect (progress_check): the attempt
           died somewhere past its first hop — a dropper acks the hop
           and eats the message, so the only node the origin can indict
           is the one it handed the lookup to. Distrust it briefly and
           let the retry route around it. *)
        (if t.cfg.progress_check then
           match st.e_first_hop with
           | Some fh ->
               (peer t fh.Peer.id).times.distrust_until <- now t +. Config.exclusion_period;
               if traced t then
                 emit_ev t
                   (Obs.Event.Route_diverted
                      {
                        addr = t.me.Peer.addr;
                        suspect = fh.Peer.addr;
                        seq;
                        attempt = st.e_attempt;
                      });
               st.e_first_hop <- None
           | None -> ());
        if traced t then
          emit_ev t
            (Obs.Event.Lookup_retry
               { seq; addr = t.me.Peer.addr; attempt = st.e_attempt });
        let payload =
          M.Lookup { key = st.e_key; seq; origin = t.me; hops = 0; retx = true }
        in
        arm_e2e t seq st;
        route_payload t payload ~key:st.e_key ~reroutes:0
      end

and handle_lookup_ack t seq =
  match Hashtbl.find_opt t.e2e seq with
  | None -> ()
  | Some st ->
      cancel_timer t st.e_timer;
      Hashtbl.remove t.e2e seq

let crash t =
  if t.alive && traced t then emit_ev t (Obs.Event.Node_crash { addr = t.me.Peer.addr });
  t.active <- false;
  t.alive <- false

let leave t =
  if t.alive then begin
    if t.active then
      List.iter (fun m -> send_msg t m M.Goodbye) (Leafset.members t.leafset);
    crash t
  end

let bootstrap = bootstrap
let join = join

let handle t ~src msg =
  if !Profile.on then begin
    let ph = node_phase (M.classify msg) in
    Profile.enter ph;
    handle t ~src msg;
    Profile.leave ph
  end
  else handle t ~src msg

let lookup = lookup
