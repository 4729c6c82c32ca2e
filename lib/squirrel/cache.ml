module Live = Harness.Sim.Live
module Node = Mspastry.Node
module Nodeid = Pastry.Nodeid
module Collector = Overlay_metrics.Collector
module Series = Repro_util.Series

type pending = {
  url : string;
  client_addr : int;
  sent : float;
  timer : Simkit.Engine.event_id;
}

type store = (string, float) Hashtbl.t (* url -> last access time *)

type t = {
  live : Live.t;
  capacity : int;
  pending : (int, pending) Hashtbl.t;
  stores : (int, store) Hashtbl.t; (* home node addr -> cached objects *)
  mutable requests : int;
  mutable responses : int;
  mutable hits : int;
  mutable misses : int;
  mutable failed : int;
  mutable latency_sum : float;
  msgs : Series.t; (* squirrel's non-overlay messages, on the collector's windows *)
}

let key_of_url url = Nodeid.of_string (Digest.string url)

let request_timeout = 10.0

(* one-way delay to the (external) origin server *)
let origin_delay = 0.15

let record_msg t = Series.count t.msgs ~time:(Simkit.Engine.now (Live.engine t.live))

let evict_to_capacity t store =
  while Hashtbl.length store > t.capacity do
    let oldest = ref None in
    Hashtbl.iter
      (fun url ts ->
        match !oldest with
        | Some (_, bts) when bts <= ts -> ()
        | _ -> oldest := Some (url, ts))
      store;
    match !oldest with Some (url, _) -> Hashtbl.remove store url | None -> ()
  done

let respond t ~home_addr ~(p : pending) =
  let engine = Live.engine t.live in
  record_msg t;
  let d = Netsim.Net.delay (Live.net t.live) home_addr p.client_addr in
  ignore
    (Simkit.Engine.schedule engine ~delay:d (fun () ->
         t.responses <- t.responses + 1;
         t.latency_sum <- t.latency_sum +. (Simkit.Engine.now engine -. p.sent)))

let on_delivery t node (l : Mspastry.Message.lookup) =
  match Hashtbl.find_opt t.pending l.Mspastry.Message.seq with
  | None -> ()
  | Some p ->
      Hashtbl.remove t.pending l.Mspastry.Message.seq;
      Simkit.Engine.cancel (Live.engine t.live) p.timer;
      let engine = Live.engine t.live in
      let now = Simkit.Engine.now engine in
      let home_addr = (Node.me node).Pastry.Peer.addr in
      let store =
        match Hashtbl.find_opt t.stores home_addr with
        | Some s -> s
        | None ->
            let s = Hashtbl.create 64 in
            Hashtbl.add t.stores home_addr s;
            s
      in
      if Hashtbl.mem store p.url then begin
        t.hits <- t.hits + 1;
        Hashtbl.replace store p.url now;
        respond t ~home_addr ~p
      end
      else begin
        t.misses <- t.misses + 1;
        (* origin fetch: request out, object back *)
        record_msg t;
        ignore
          (Simkit.Engine.schedule engine ~delay:(2.0 *. origin_delay) (fun () ->
               record_msg t;
               Hashtbl.replace store p.url (Simkit.Engine.now engine);
               evict_to_capacity t store;
               respond t ~home_addr ~p))
      end

let create ?(capacity_per_node = 4096) ~live () =
  let t =
    {
      live;
      capacity = capacity_per_node;
      pending = Hashtbl.create 1024;
      stores = Hashtbl.create 64;
      requests = 0;
      responses = 0;
      hits = 0;
      misses = 0;
      failed = 0;
      latency_sum = 0.0;
      msgs = Series.create ~window:(Collector.window (Live.collector live));
    }
  in
  Live.on_deliver live (fun node l -> on_delivery t node l);
  t

let request t ~client ~url =
  let engine = Live.engine t.live in
  t.requests <- t.requests + 1;
  let key = key_of_url url in
  (* the pending entry must be installed before the lookup is routed:
     when the client is itself the key's home node, delivery is
     synchronous *)
  let seq = Live.alloc_lookup t.live in
  let timer =
    Simkit.Engine.schedule engine ~delay:request_timeout (fun () ->
        if Hashtbl.mem t.pending seq then begin
          Hashtbl.remove t.pending seq;
          t.failed <- t.failed + 1
        end)
  in
  Hashtbl.replace t.pending seq
    {
      url;
      client_addr = (Node.me client).Pastry.Peer.addr;
      sent = Simkit.Engine.now engine;
      timer;
    };
  Node.lookup client ~key ~seq

type stats = {
  requests : int;
  responses : int;
  hits : int;
  misses : int;
  failed : int;
  mean_latency : float;
  cached_objects : int;
}

let stats (t : t) =
  {
    requests = t.requests;
    responses = t.responses;
    hits = t.hits;
    misses = t.misses;
    failed = t.failed;
    mean_latency =
      (if t.responses = 0 then 0.0 else t.latency_sum /. float_of_int t.responses);
    cached_objects = Hashtbl.fold (fun _ s acc -> acc + Hashtbl.length s) t.stores 0;
  }

let traffic_series t =
  let c = Live.collector t.live in
  let window = Collector.window c in
  List.init (Series.length t.msgs) Fun.id
  |> List.filter_map (fun w ->
         let p = Collector.population_at c w in
         if Series.samples t.msgs w > 0 && p > 0.0 then
           Some (Series.mid t.msgs w, Series.sum t.msgs w /. (p *. window))
         else None)
  |> Array.of_list
