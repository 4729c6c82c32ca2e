module Live = Harness.Sim.Live
module Node = Mspastry.Node
module M = Mspastry.Message
module Nodeid = Pastry.Nodeid

type kind =
  | Put of { key : string; value : string; refresh : bool }
  | Get of { key : string; client_addr : int; timer : Simkit.Engine.event_id }

type t = {
  live : Live.t;
  replicas : int;
  refresh_period : float;
  request_timeout : float;
  stores : (int, (string, string) Hashtbl.t) Hashtbl.t; (* addr -> key -> value *)
  pending : (int, kind) Hashtbl.t;
  mutable next_seq : int;
  mutable puts : int;
  mutable put_acks : int;
  mutable gets : int;
  mutable get_hits : int;
  mutable get_misses : int;
  mutable get_timeouts : int;
  mutable repair_pulls : int;
}

let hash_key key = Nodeid.of_string (Digest.string ("past:" ^ key))

let store_of t addr =
  match Hashtbl.find_opt t.stores addr with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 16 in
      Hashtbl.add t.stores addr s;
      s

let alive_at t addr =
  match Live.find_node t.live ~addr with
  | Some n -> Node.is_alive n
  | None -> false

let engine t = Live.engine t.live

(* the k-1 leaf-set members of [node] ring-closest to the object key *)
let replica_targets t node ~keyhash =
  Pastry.Leafset.members (Node.leafset node)
  |> List.sort (fun a b -> Nodeid.compare_ring_dist ~key:keyhash a.Pastry.Peer.id b.Pastry.Peer.id)
  |> List.filteri (fun i _ -> i < t.replicas - 1)

let replicate t ~from_addr ~key ~value node =
  List.iter
    (fun (p : Pastry.Peer.t) ->
      let d = Netsim.Net.delay (Live.net t.live) from_addr p.Pastry.Peer.addr in
      ignore
        (Simkit.Engine.schedule (engine t) ~delay:d (fun () ->
             if alive_at t p.Pastry.Peer.addr then
               Hashtbl.replace (store_of t p.Pastry.Peer.addr) key value)))
    (replica_targets t node ~keyhash:(hash_key key))

let handle_put t node ~key ~value =
  let addr = (Node.me node).Pastry.Peer.addr in
  Hashtbl.replace (store_of t addr) key value;
  replicate t ~from_addr:addr ~key ~value node

(* lazy recovery: a fresh root pulls a missing object from the replica
   neighbourhood before answering *)
let neighbour_copy t node ~key =
  let holders =
    Pastry.Leafset.members (Node.leafset node)
    |> List.filter (fun (p : Pastry.Peer.t) ->
           alive_at t p.Pastry.Peer.addr
           && Hashtbl.mem (store_of t p.Pastry.Peer.addr) key)
  in
  match holders with
  | [] -> None
  | (p : Pastry.Peer.t) :: _ ->
      Some (p, Hashtbl.find (store_of t p.Pastry.Peer.addr) key)

let answer_get t node ~key ~client_addr ~seq =
  let addr = (Node.me node).Pastry.Peer.addr in
  let respond found extra_delay =
    let d = extra_delay +. Netsim.Net.delay (Live.net t.live) addr client_addr in
    ignore
      (Simkit.Engine.schedule (engine t) ~delay:d (fun () ->
           match Hashtbl.find_opt t.pending seq with
           | Some (Get g) ->
               Hashtbl.remove t.pending seq;
               Simkit.Engine.cancel (engine t) g.timer;
               if found then t.get_hits <- t.get_hits + 1
               else t.get_misses <- t.get_misses + 1
           | Some (Put _) | None -> ()))
  in
  match Hashtbl.find_opt (store_of t addr) key with
  | Some _ -> respond true 0.0
  | None -> (
      (* one neighbourhood round-trip to recover the replica *)
      match neighbour_copy t node ~key with
      | Some (holder, value) ->
          t.repair_pulls <- t.repair_pulls + 1;
          Hashtbl.replace (store_of t addr) key value;
          replicate t ~from_addr:addr ~key ~value node;
          respond true (Netsim.Net.rtt (Live.net t.live) addr holder.Pastry.Peer.addr)
      | None -> respond false 0.0)

let on_deliver t node (l : M.lookup) =
  match Hashtbl.find_opt t.pending l.M.seq with
  | None -> ()
  | Some (Put { key; value; refresh }) ->
      Hashtbl.remove t.pending l.M.seq;
      if not refresh then t.put_acks <- t.put_acks + 1;
      handle_put t node ~key ~value
  | Some (Get { key; client_addr; _ }) -> answer_get t node ~key ~client_addr ~seq:l.M.seq

let fresh_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let route_put t ~client ~key ~value ~refresh =
  if Node.is_alive client && Node.is_active client then begin
    let seq = fresh_seq t in
    Hashtbl.replace t.pending seq (Put { key; value; refresh });
    Node.lookup client ~key:(hash_key key) ~seq
  end

(* periodic anti-entropy: every holder re-inserts what it stores, so the
   replica set follows ring membership *)
let rec sweep t =
  Hashtbl.iter
    (fun addr store ->
      match Live.find_node t.live ~addr with
      | Some node when Node.is_alive node && Node.is_active node ->
          Hashtbl.iter (fun key value -> route_put t ~client:node ~key ~value ~refresh:true) store
      | Some _ | None ->
          (* the machine is gone; its replicas die with it *)
          Hashtbl.reset store)
    t.stores;
  ignore (Simkit.Engine.schedule (engine t) ~delay:t.refresh_period (fun () -> sweep t))

let create ?(replicas = 3) ?(refresh_period = 120.0) ?(request_timeout = 10.0) ~live () =
  if replicas < 1 then invalid_arg "Past.create: replicas must be >= 1";
  let t =
    {
      live;
      replicas;
      refresh_period;
      request_timeout;
      stores = Hashtbl.create 128;
      pending = Hashtbl.create 64;
      next_seq = 2_000_000_000;
      puts = 0;
      put_acks = 0;
      gets = 0;
      get_hits = 0;
      get_misses = 0;
      get_timeouts = 0;
      repair_pulls = 0;
    }
  in
  Live.on_deliver live (fun node l -> on_deliver t node l);
  ignore (Simkit.Engine.schedule (engine t) ~delay:refresh_period (fun () -> sweep t));
  t

let put t ~client ~key ~value =
  t.puts <- t.puts + 1;
  route_put t ~client ~key ~value ~refresh:false

let get t ~client ~key =
  if Node.is_alive client && Node.is_active client then begin
    t.gets <- t.gets + 1;
    let seq = fresh_seq t in
    let timer =
      Simkit.Engine.schedule (engine t) ~delay:t.request_timeout (fun () ->
          if Hashtbl.mem t.pending seq then begin
            Hashtbl.remove t.pending seq;
            t.get_timeouts <- t.get_timeouts + 1
          end)
    in
    Hashtbl.replace t.pending seq
      (Get { key; client_addr = (Node.me client).Pastry.Peer.addr; timer });
    Node.lookup client ~key:(hash_key key) ~seq
  end

type stats = {
  puts : int;
  put_acks : int;
  gets : int;
  get_hits : int;
  get_misses : int;
  get_timeouts : int;
  stored_objects : int;
  repair_pulls : int;
}

let stats (t : t) =
  let stored =
    Hashtbl.fold
      (fun addr store acc -> if alive_at t addr then acc + Hashtbl.length store else acc)
      t.stores 0
  in
  {
    puts = t.puts;
    put_acks = t.put_acks;
    gets = t.gets;
    get_hits = t.get_hits;
    get_misses = t.get_misses;
    get_timeouts = t.get_timeouts;
    stored_objects = stored;
    repair_pulls = t.repair_pulls;
  }

let object_replicas t ~key =
  Hashtbl.fold
    (fun addr store acc ->
      if alive_at t addr && Hashtbl.mem store key then acc + 1 else acc)
    t.stores 0
