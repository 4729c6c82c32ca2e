module Obs = Repro_obs
module Profile = Repro_obs.Profile
module Netfault = Repro_faults.Netfault
module Nodefault = Repro_faults.Nodefault

let ph_send = Profile.phase "netsim.send"
let ph_deliver = Profile.phase "netsim.deliver"
let ph_verdict = Profile.phase "netsim.fault_verdict"
let ph_queue = Profile.phase "netsim.queue"

type stats = {
  sent : int;
  delivered : int;
  dropped_loss : int;
  dropped_dead : int;
  dropped_fault : int;
  dropped_node : int;
  dropped_congestion : int;
  sent_by_class : (string * int) list;
}

type capacity = { service_rate : float; queue_limit : int }

(* deterministic per-address server state: [hi_until] is the virtual
   time at which all queued high-priority work completes, [all_until]
   the time at which everything queued completes ([hi_until <=
   all_until] always) *)
type cap_state = { mutable hi_until : float; mutable all_until : float }

type 'm t = {
  engine : Simkit.Engine.t;
  topology : Topology.t;
  rng : Repro_util.Rng.t;
  endpoint_of : int -> int;
  class_names : string array;
  class_of : 'm -> int;
  seq_of : 'm -> int option;
  priority_of : ('m -> int) option;
  capacity : capacity option;
  (* indexed by address, grown on demand; [None] where nothing is
     registered (or queued) *)
  mutable handlers : (src:int -> 'm -> unit) option array;
  mutable link : Netfault.t;
  mutable node : Nodefault.t;
  mutable cap_states : cap_state option array;
  mutable taps : (time:float -> src:int -> dst:int -> 'm -> unit) list;
  mutable queue_taps : (addr:int -> cls:string -> delay:float -> unit) list;
  mutable n_sent : int;
  mutable n_delivered : int;
  mutable n_dropped_loss : int;
  mutable n_dropped_dead : int;
  mutable n_dropped_fault : int;
  mutable n_dropped_node : int;
  mutable n_dropped_congestion : int;
  by_class : int array; (* sends per class index *)
  trace : Obs.Trace.t;
}

let validate_capacity c =
  if c.service_rate <= 0.0 || Float.is_nan c.service_rate then
    invalid_arg "Net.capacity: service_rate must be > 0";
  if c.queue_limit < 1 then invalid_arg "Net.capacity: queue_limit must be >= 1"

let validate_classes names =
  let distinct = List.sort_uniq String.compare (Array.to_list names) in
  if List.length distinct <> Array.length names then
    invalid_arg "Net.create: duplicate traffic class names"

let create ?(endpoint_of = fun a -> a) ?(classes = ([| "msg" |], fun _ -> 0))
    ?(seq_of = fun _ -> None) ?priority_of ?capacity
    ?(trace = Obs.Trace.disabled) ~engine ~topology ~rng () =
  Option.iter validate_capacity capacity;
  let class_names, class_of = classes in
  validate_classes class_names;
  {
    engine;
    topology;
    rng;
    endpoint_of;
    class_names = Array.copy class_names;
    class_of;
    seq_of;
    priority_of;
    capacity;
    handlers = Array.make 256 None;
    link = Netfault.none;
    node = Nodefault.none;
    cap_states = Array.make 256 None;
    taps = [];
    queue_taps = [];
    n_sent = 0;
    n_delivered = 0;
    n_dropped_loss = 0;
    n_dropped_dead = 0;
    n_dropped_fault = 0;
    n_dropped_node = 0;
    n_dropped_congestion = 0;
    by_class = Array.make (Array.length class_names) 0;
    trace;
  }

let engine t = t.engine
let topology t = t.topology

let set_faults t ~link ~node =
  t.link <- link;
  t.node <- node

(* per-address slots: reads past the end (or below 0) are empty, and a
   write grows the array to at least twice its length *)
let slot a i = if i >= 0 && i < Array.length a then a.(i) else None

let grown a i =
  if i < Array.length a then a
  else begin
    let b = Array.make (max (2 * Array.length a) (i + 1)) None in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let check_addr fn addr = if addr < 0 then invalid_arg ("Net." ^ fn ^ ": negative address")

let cap_state t addr =
  match slot t.cap_states addr with
  | Some st -> st
  | None ->
      check_addr "send" addr;
      let st = { hi_until = 0.0; all_until = 0.0 } in
      t.cap_states <- grown t.cap_states addr;
      t.cap_states.(addr) <- Some st;
      st

let queue_occupancy t ~addr =
  match t.capacity with
  | None -> 0
  | Some cap -> (
      match slot t.cap_states addr with
      | None -> 0
      | Some st ->
          let backlog = st.all_until -. Simkit.Engine.now t.engine in
          if backlog <= 0.0 then 0
          else int_of_float ((backlog *. cap.service_rate) +. 0.5))

let on_queue t tap = t.queue_taps <- tap :: t.queue_taps

let register t ~addr handler =
  check_addr "register" addr;
  t.handlers <- grown t.handlers addr;
  t.handlers.(addr) <- Some handler

let unregister t ~addr =
  if Option.is_some (slot t.handlers addr) then t.handlers.(addr) <- None;
  if Option.is_some (slot t.cap_states addr) then t.cap_states.(addr) <- None

(* distinct addresses on the same endpoint are LAN neighbours, not the
   same machine *)
let same_endpoint_delay = 0.0005

let delay t a b =
  if a = b then 0.0
  else begin
    let d = Topology.delay t.topology (t.endpoint_of a) (t.endpoint_of b) in
    if d <= 0.0 then same_endpoint_delay else d
  end

let rtt t a b = 2.0 *. delay t a b

let on_send t tap = t.taps <- tap :: t.taps

(* every drop, whichever stage made it: one counter per cause, one trace
   reason *)
let drop t ~time ~src ~dst ~cls msg (reason : Obs.Event.drop_reason) =
  (match reason with
  | Loss -> t.n_dropped_loss <- t.n_dropped_loss + 1
  | Faulted -> t.n_dropped_fault <- t.n_dropped_fault + 1
  | Node_fault -> t.n_dropped_node <- t.n_dropped_node + 1
  | Congested -> t.n_dropped_congestion <- t.n_dropped_congestion + 1
  | Dead_destination -> t.n_dropped_dead <- t.n_dropped_dead + 1);
  if Obs.Trace.enabled t.trace then
    Obs.Trace.emit t.trace
      {
        Obs.Event.time;
        body = Obs.Event.Drop { src; dst; cls; seq = t.seq_of msg; reason };
      }

(* stage 4, at delivery time: the receiver's mute is re-judged (a
   flapping node that recovers mid-flight still gets the message, like a
   rebooting host), then the destination must still be registered *)
let deliver t ~src ~dst ~cls msg () =
  let prof = !Profile.on in
  if prof then Profile.enter ph_deliver;
  let now = Simkit.Engine.now t.engine in
  (match Nodefault.decide t.node ~time:now ~dir:Nodefault.Recv ~addr:dst with
  | Nodefault.Mute -> drop t ~time:now ~src ~dst ~cls msg Node_fault
  | Nodefault.Pass | Nodefault.Slow _ -> (
      match slot t.handlers dst with
      | Some handler ->
          t.n_delivered <- t.n_delivered + 1;
          if Obs.Trace.enabled t.trace then
            Obs.Trace.emit t.trace
              { Obs.Event.time = now; body = Obs.Event.Recv { src; dst; cls } };
          handler ~src msg
      | None -> drop t ~time:now ~src ~dst ~cls msg Dead_destination));
  if prof then Profile.leave ph_deliver

(* stage 3: join [dst]'s bounded queue at arrival time [now + d]; the
   delay until delivery, or [None] when the queue is full. It draws no
   randomness, so the capacity model never shifts the RNG stream *)
let enqueue t cap ~now ~dst ~cls msg d =
  let st = cap_state t dst in
  let service = 1.0 /. cap.service_rate in
  let a = now +. d in
  let hi = if st.hi_until > a then st.hi_until else a in
  let all = if st.all_until > a then st.all_until else a in
  let high = match t.priority_of with Some p -> p msg > 0 | None -> false in
  let band_until = if high then hi else all in
  let occ = int_of_float (((band_until -. a) *. cap.service_rate) +. 0.5) in
  if occ >= cap.queue_limit then None
  else begin
    let completion = band_until +. service in
    if high then begin
      st.hi_until <- completion;
      st.all_until <- all +. service
    end
    else st.all_until <- completion;
    let qdelay = completion -. a in
    if Obs.Trace.enabled t.trace then
      Obs.Trace.emit t.trace
        {
          Obs.Event.time = now;
          body = Obs.Event.Queue { addr = dst; cls; delay = qdelay; occ = occ + 1 };
        };
    List.iter (fun tap -> tap ~addr:dst ~cls ~delay:qdelay) t.queue_taps;
    Some (completion -. now)
  end

let slowdown = function
  | Nodefault.Slow { factor; extra } -> (factor, extra)
  | Nodefault.Pass | Nodefault.Mute -> (1.0, 0.0)

let send_inner t ~src ~dst msg =
  let prof = !Profile.on in
  t.n_sent <- t.n_sent + 1;
  let ci = t.class_of msg in
  t.by_class.(ci) <- t.by_class.(ci) + 1;
  let cls = t.class_names.(ci) in
  let now = Simkit.Engine.now t.engine in
  if Obs.Trace.enabled t.trace then
    Obs.Trace.emit t.trace
      {
        Obs.Event.time = now;
        body = Obs.Event.Send { src; dst; cls; seq = t.seq_of msg };
      };
  List.iter (fun tap -> tap ~time:now ~src ~dst msg) t.taps;
  (* stage 1, the link model on topology endpoints; stage 2, the node
     model on overlay addresses: the sender's verdict rules now, the
     receiver's slowdown is priced in now (its mute waits for stage 4) *)
  if prof then Profile.enter ph_verdict;
  let link =
    Netfault.decide t.link ~rng:t.rng ~time:now ~src:(t.endpoint_of src)
      ~dst:(t.endpoint_of dst)
  in
  let sender, receiver =
    match link with
    | Netfault.Lose _ -> (Nodefault.Pass, Nodefault.Pass)
    | Netfault.Pass | Netfault.Delay _ ->
        ( Nodefault.decide t.node ~time:now ~dir:Nodefault.Send ~addr:src,
          Nodefault.decide t.node ~time:now ~dir:Nodefault.Recv ~addr:dst )
  in
  if prof then Profile.leave ph_verdict;
  match (link, sender) with
  | Netfault.Lose { uniform }, _ ->
      drop t ~time:now ~src ~dst ~cls msg (if uniform then Loss else Faulted)
  | _, Nodefault.Mute -> drop t ~time:now ~src ~dst ~cls msg Node_fault
  | (Netfault.Pass | Netfault.Delay _), (Nodefault.Pass | Nodefault.Slow _) -> (
      let link_extra = match link with Netfault.Delay d -> d | _ -> 0.0 in
      let fs, es = slowdown sender and fr, er = slowdown receiver in
      let d = (delay t src dst *. (fs *. fr)) +. (es +. er) +. link_extra in
      let d =
        match t.capacity with
        | None -> Some d
        | Some cap ->
            if prof then Profile.enter ph_queue;
            let r = enqueue t cap ~now ~dst ~cls msg d in
            if prof then Profile.leave ph_queue;
            r
      in
      match d with
      | None -> drop t ~time:now ~src ~dst ~cls msg Congested
      | Some d ->
          ignore
            (Simkit.Engine.schedule t.engine ~delay:d (deliver t ~src ~dst ~cls msg)))

let send t ~src ~dst msg =
  if !Profile.on then begin
    Profile.enter ph_send;
    send_inner t ~src ~dst msg;
    Profile.leave ph_send
  end
  else send_inner t ~src ~dst msg

let n_sent t = t.n_sent
let n_delivered t = t.n_delivered
let n_dropped t =
  t.n_dropped_loss + t.n_dropped_dead + t.n_dropped_fault + t.n_dropped_node
  + t.n_dropped_congestion

let sent_in_class t cls =
  let n = ref 0 in
  Array.iteri (fun i name -> if name = cls then n := t.by_class.(i)) t.class_names;
  !n

let stats t =
  {
    sent = t.n_sent;
    delivered = t.n_delivered;
    dropped_loss = t.n_dropped_loss;
    dropped_dead = t.n_dropped_dead;
    dropped_fault = t.n_dropped_fault;
    dropped_node = t.n_dropped_node;
    dropped_congestion = t.n_dropped_congestion;
    sent_by_class =
      List.combine (Array.to_list t.class_names) (Array.to_list t.by_class)
      |> List.filter (fun (_, n) -> n > 0)
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }
