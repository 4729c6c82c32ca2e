type decision = Deliver | Forward of Peer.t
type rule = Via_leafset | Via_table | Via_closest

let rule_name = function
  | Via_leafset -> "leafset"
  | Via_table -> "table"
  | Via_closest -> "closest"

let no_exclusion _ = false

let next_hop_explained ?(excluded = no_exclusion) ~leafset ~table ~key () =
  let me = Leafset.me leafset in
  if Leafset.covers leafset key then
    let p = Leafset.closest_excluding leafset key ~excluded in
    ((if Nodeid.equal p.Peer.id me.Peer.id then Deliver else Forward p), Via_leafset)
  else begin
    let b = Routing_table.b table in
    let r = Nodeid.shared_prefix_length ~b key me.Peer.id in
    let direct =
      match Routing_table.get table r (Nodeid.digit ~b key r) with
      | Some e when not (excluded e.Routing_table.peer.Peer.id) -> Some e.Routing_table.peer
      | Some _ | None -> None
    in
    match direct with
    | Some p -> (Forward p, Via_table)
    | None ->
        (* fallback: any peer strictly closer to the key sharing a prefix of
           length >= r; prefer longer shared prefixes, then ring proximity.
           Leaf-set members come first, so they win exact ties. *)
        let best = ref me and best_len = ref (-1) in
        let consider p =
          let pl = Nodeid.shared_prefix_length ~b key p.Peer.id in
          if
            pl >= r
            && Nodeid.compare_ring_dist ~key p.Peer.id me.Peer.id < 0
            && (pl > !best_len
               || (pl = !best_len && Nodeid.compare_ring_dist ~key p.Peer.id !best.Peer.id < 0))
            && not (excluded p.Peer.id)
          then begin
            best := p;
            best_len := pl
          end
        in
        List.iter consider (Leafset.members leafset);
        Routing_table.iter (fun e -> consider e.Routing_table.peer) table;
        if !best_len < 0 then (Deliver, Via_closest) else (Forward !best, Via_closest)
  end

let next_hop ?excluded ~leafset ~table ~key () =
  fst (next_hop_explained ?excluded ~leafset ~table ~key ())

let empty_slot_on_path ~leafset ~table ~key =
  let me = Leafset.me leafset in
  if Leafset.covers leafset key || Nodeid.equal key me.Peer.id then None
  else begin
    let b = Routing_table.b table in
    let r = Nodeid.shared_prefix_length ~b key me.Peer.id in
    let c = Nodeid.digit ~b key r in
    match Routing_table.get table r c with None -> Some (r, c) | Some _ -> None
  end
