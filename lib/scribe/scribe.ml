module Live = Harness.Sim.Live
module Node = Mspastry.Node
module M = Mspastry.Message
module Nodeid = Pastry.Nodeid

type group = Nodeid.t

(* per-node, per-group tree state: children carry the time they last
   refreshed, so stale branches age out after missed refreshes *)
type tree_state = { children : (int, float) Hashtbl.t }

type kind = Subscribe of group | Publish of group * int

type t = {
  live : Live.t;
  refresh_period : float;
  (* (node addr, group) -> tree state *)
  trees : (int * group, tree_state) Hashtbl.t;
  (* members per group: addr -> node (for liveness + delivery) *)
  memberships : (group, (int, Node.t) Hashtbl.t) Hashtbl.t;
  pending : (int, kind) Hashtbl.t; (* app-level lookup seq -> purpose *)
  mutable next_seq : int; (* private range: never collides with Live's *)
  mutable next_msg : int;
  deliveries : (group * int, (int, unit) Hashtbl.t) Hashtbl.t;
  mutable subscribes_sent : int;
  mutable multicasts_sent : int;
  mutable tree_messages : int;
}

let group_of_name name = Nodeid.of_string (Digest.string ("scribe:" ^ name))

let tree_state t addr group =
  match Hashtbl.find_opt t.trees (addr, group) with
  | Some st -> st
  | None ->
      let st = { children = Hashtbl.create 4 } in
      Hashtbl.add t.trees (addr, group) st;
      st

let member_table t group =
  match Hashtbl.find_opt t.memberships group with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.add t.memberships group tbl;
      tbl

(* Subscribes travel the whole route to the rendezvous on every (soft
   state) refresh, re-recording the previous hop as a child at each node.
   Unlike classic Scribe we never absorb them early: re-traversal is what
   heals branches whose upstream forwarders died. *)
let on_forward t node ~prev (l : M.lookup) =
  (match Hashtbl.find_opt t.pending l.M.seq with
  | None | Some (Publish _) -> ()
  | Some (Subscribe group) -> (
      match prev with
      | Some p ->
          let addr = (Node.me node).Pastry.Peer.addr in
          let st = tree_state t addr group in
          Hashtbl.replace st.children p.Pastry.Peer.addr
            (Simkit.Engine.now (Live.engine t.live))
      | None -> ()));
  Node.Continue

(* deliver a multicast to a member and push it down the tree *)
let rec disseminate t ~group ~msg_id ~at_addr =
  let visited =
    match Hashtbl.find_opt t.deliveries (group, msg_id) with
    | Some v -> v
    | None ->
        let v = Hashtbl.create 16 in
        Hashtbl.add t.deliveries (group, msg_id) v;
        v
  in
  if not (Hashtbl.mem visited at_addr) then begin
    Hashtbl.replace visited at_addr ();
    (* no-op for pure forwarders: only members count as deliveries, but
       the visited set also breaks cycles for them *)
    (match Hashtbl.find_opt t.trees (at_addr, group) with
    | None -> ()
    | Some st ->
        let now = Simkit.Engine.now (Live.engine t.live) in
        Hashtbl.iter
          (fun child ts ->
            (* skip branches that stopped refreshing (dead subtrees) *)
            if now -. ts <= 3.0 *. t.refresh_period then begin
              t.tree_messages <- t.tree_messages + 1;
              let d = Netsim.Net.delay (Live.net t.live) at_addr child in
              ignore
                (Simkit.Engine.schedule (Live.engine t.live) ~delay:d (fun () ->
                     match Live.find_node t.live ~addr:child with
                     | Some n when Node.is_alive n ->
                         disseminate t ~group ~msg_id ~at_addr:child
                     | Some _ | None -> ()))
            end)
          st.children)
  end

let on_deliver t node (l : M.lookup) =
  match Hashtbl.find_opt t.pending l.M.seq with
  | None -> ()
  | Some (Subscribe _) -> () (* the rendezvous node needs no extra state *)
  | Some (Publish (group, msg_id)) ->
      Hashtbl.remove t.pending l.M.seq;
      disseminate t ~group ~msg_id ~at_addr:(Node.me node).Pastry.Peer.addr

let create ?(refresh_period = 60.0) ~live () =
  let t =
    {
      live;
      refresh_period;
      trees = Hashtbl.create 64;
      memberships = Hashtbl.create 8;
      pending = Hashtbl.create 64;
      next_seq = 1_000_000_000;
      next_msg = 0;
      deliveries = Hashtbl.create 64;
      subscribes_sent = 0;
      multicasts_sent = 0;
      tree_messages = 0;
    }
  in
  Live.on_forward live (fun node ~prev l -> on_forward t node ~prev l);
  Live.on_deliver live (fun node l -> on_deliver t node l);
  t

let send_subscribe t member group =
  if Node.is_alive member && Node.is_active member then begin
    t.subscribes_sent <- t.subscribes_sent + 1;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Hashtbl.replace t.pending seq (Subscribe group);
    Node.lookup member ~key:group ~seq
  end

let subscribe t ~member group =
  let addr = (Node.me member).Pastry.Peer.addr in
  let tbl = member_table t group in
  let already = Hashtbl.mem tbl addr in
  Hashtbl.replace tbl addr member;
  if already then () (* refresh chain already running *)
  else begin
  send_subscribe t member group;
  (* soft state: refresh while the member lives *)
  let rec refresh () =
    if Node.is_alive member then begin
      send_subscribe t member group;
      ignore
        (Simkit.Engine.schedule (Live.engine t.live)
           ~delay:t.refresh_period (fun () -> refresh ()))
    end
  in
  ignore
    (Simkit.Engine.schedule (Live.engine t.live) ~delay:t.refresh_period (fun () ->
         refresh ()))
  end

let multicast t ~from group =
  t.multicasts_sent <- t.multicasts_sent + 1;
  let msg_id = t.next_msg in
  t.next_msg <- msg_id + 1;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Hashtbl.replace t.pending seq (Publish (group, msg_id));
  Node.lookup from ~key:group ~seq;
  msg_id

let members t group =
  match Hashtbl.find_opt t.memberships group with
  | None -> 0
  | Some tbl -> Hashtbl.fold (fun _ n acc -> if Node.is_alive n then acc + 1 else acc) tbl 0

let delivered t group msg_id =
  match Hashtbl.find_opt t.deliveries (group, msg_id) with
  | None -> 0
  | Some visited -> (
      match Hashtbl.find_opt t.memberships group with
      | None -> 0
      | Some tbl ->
          Hashtbl.fold
            (fun addr _ acc -> if Hashtbl.mem visited addr then acc + 1 else acc)
            tbl 0)

type stats = {
  subscribes_sent : int;
  multicasts_sent : int;
  deliveries : int;
  tree_messages : int;
}

let stats t =
  let deliveries =
    Hashtbl.fold
      (fun (group, _) visited acc ->
        match Hashtbl.find_opt t.memberships group with
        | None -> acc
        | Some tbl ->
            acc
            + Hashtbl.fold
                (fun addr _ a -> if Hashtbl.mem visited addr then a + 1 else a)
                tbl 0)
      t.deliveries 0
  in
  {
    subscribes_sent = t.subscribes_sent;
    multicasts_sent = t.multicasts_sent;
    deliveries;
    tree_messages = t.tree_messages;
  }
