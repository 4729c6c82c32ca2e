module Graph = Graph
module Rng = Repro_util.Rng

type routed = {
  graph : Graph.t;
  attach : int array; (* endpoint -> router *)
  lan : float array; (* endpoint -> access-link delay *)
  scale : float; (* multiplies router-graph distance into seconds *)
  spt_cache : float array array; (* router -> its distances; [||] until computed *)
}

type kind = Constant of float | Routed of routed

type t = { name : string; n_endpoints : int; kind : kind }

let name t = t.name
let n_endpoints t = t.n_endpoints

let n_routers t =
  match t.kind with Constant _ -> 0 | Routed r -> Graph.n r.graph

let spt r src =
  let d = r.spt_cache.(src) in
  if Array.length d > 0 then d
  else begin
    let d = Graph.dijkstra r.graph src in
    r.spt_cache.(src) <- d;
    d
  end

let delay t e1 e2 =
  if e1 = e2 then 0.0
  else begin
    if e1 < 0 || e2 < 0 || e1 >= t.n_endpoints || e2 >= t.n_endpoints then
      invalid_arg "Topology.delay: endpoint out of range";
    match t.kind with
    | Constant d -> d
    | Routed r ->
        let r1 = r.attach.(e1) and r2 = r.attach.(e2) in
        let core = if r1 = r2 then 0.0 else (spt r r1).(r2) *. r.scale in
        r.lan.(e1) +. core +. r.lan.(e2)
  end

let rtt t e1 e2 = 2.0 *. delay t e1 e2

let constant ~n_endpoints ~delay =
  if n_endpoints <= 0 then invalid_arg "Topology.constant";
  { name = "constant"; n_endpoints; kind = Constant delay }

(* random spanning tree plus [extra] random edges over vertex list [vs] *)
let connect_cluster rng graph vs ~extra ~weight =
  let n = Array.length vs in
  if n > 1 then begin
    let order = Array.copy vs in
    Rng.shuffle rng order;
    for i = 1 to n - 1 do
      let j = Rng.int rng i in
      Graph.add_edge graph order.(i) order.(j) (weight ())
    done;
    for _ = 1 to extra do
      let a = vs.(Rng.int rng n) and b = vs.(Rng.int rng n) in
      if a <> b then Graph.add_edge graph a b (weight ())
    done
  end

let uniform rng lo hi = lo +. Rng.float rng (hi -. lo)

let make_routed ~name ~n_endpoints ~graph ~attach ~lan ~scale =
  {
    name;
    n_endpoints;
    kind =
      Routed { graph; attach; lan; scale; spt_cache = Array.make (Graph.n graph) [||] };
  }

let transit_stub ?(transit_domains = 10) ?(routers_per_transit = 5)
    ?(stubs_per_transit_router = 10) ?(routers_per_stub = 10) ~rng ~n_endpoints () =
  if n_endpoints <= 0 then invalid_arg "Topology.transit_stub";
  let n_transit = transit_domains * routers_per_transit in
  let n_stub_domains = n_transit * stubs_per_transit_router in
  let n_total = n_transit + (n_stub_domains * routers_per_stub) in
  let graph = Graph.create n_total in
  (* transit domains: vertices [d*routers_per_transit, ...) *)
  let transit_of d = Array.init routers_per_transit (fun i -> (d * routers_per_transit) + i) in
  for d = 0 to transit_domains - 1 do
    connect_cluster rng graph (transit_of d) ~extra:(routers_per_transit / 2)
      ~weight:(fun () -> uniform rng 0.005 0.020)
  done;
  (* inter-transit-domain: random tree over domains plus a few extras *)
  let domain_edge d1 d2 =
    let a = Rng.pick rng (transit_of d1) and b = Rng.pick rng (transit_of d2) in
    Graph.add_edge graph a b (uniform rng 0.02 0.06)
  in
  for d = 1 to transit_domains - 1 do
    domain_edge d (Rng.int rng d)
  done;
  for _ = 1 to transit_domains / 2 do
    let d1 = Rng.int rng transit_domains and d2 = Rng.int rng transit_domains in
    if d1 <> d2 then domain_edge d1 d2
  done;
  (* stub domains hang off transit routers *)
  let stub_base = n_transit in
  let stub_routers = ref [] in
  let sd = ref 0 in
  for tr = 0 to n_transit - 1 do
    for _ = 1 to stubs_per_transit_router do
      let base = stub_base + (!sd * routers_per_stub) in
      incr sd;
      let vs = Array.init routers_per_stub (fun i -> base + i) in
      connect_cluster rng graph vs ~extra:(routers_per_stub / 3)
        ~weight:(fun () -> uniform rng 0.001 0.005);
      (* gateway link into the transit router *)
      Graph.add_edge graph (Rng.pick rng vs) tr (uniform rng 0.002 0.010);
      Array.iter (fun v -> stub_routers := v :: !stub_routers) vs
    done
  done;
  Graph.ensure_connected graph rng ~weight:(fun () -> uniform rng 0.02 0.06);
  let stub_routers = Array.of_list !stub_routers in
  let attach = Array.init n_endpoints (fun _ -> Rng.pick rng stub_routers) in
  let lan = Array.make n_endpoints 0.001 in
  make_routed ~name:"gatech" ~n_endpoints ~graph ~attach ~lan ~scale:1.0

let as_graph ?(n_as = 120) ?(routers_per_as = 6) ?(hop_delay = 0.002) ~rng ~n_endpoints () =
  if n_endpoints <= 0 then invalid_arg "Topology.as_graph";
  let n_total = n_as * routers_per_as in
  let graph = Graph.create n_total in
  let routers_of a = Array.init routers_per_as (fun i -> (a * routers_per_as) + i) in
  for a = 0 to n_as - 1 do
    connect_cluster rng graph (routers_of a) ~extra:(routers_per_as / 3)
      ~weight:(fun () -> 1.0)
  done;
  (* AS overlay: preferential-attachment tree plus shortcuts, approximating
     the heavy-tailed AS degree distribution *)
  let as_edges = ref [] in
  for a = 1 to n_as - 1 do
    (* preferential attachment: pick an endpoint of a random existing edge,
       falling back to a uniform earlier AS *)
    let target =
      match !as_edges with
      | [] -> 0
      | edges ->
          if Rng.bool rng then begin
            let u, v = List.nth edges (Rng.int rng (List.length edges)) in
            if Rng.bool rng then u else v
          end
          else Rng.int rng a
    in
    as_edges := (a, target) :: !as_edges;
    Graph.add_edge graph
      (Rng.pick rng (routers_of a))
      (Rng.pick rng (routers_of target))
      1.0
  done;
  for _ = 1 to n_as / 4 do
    let a = Rng.int rng n_as and b = Rng.int rng n_as in
    if a <> b then
      Graph.add_edge graph (Rng.pick rng (routers_of a)) (Rng.pick rng (routers_of b)) 1.0
  done;
  Graph.ensure_connected graph rng ~weight:(fun () -> 1.0);
  (* attach endpoints to distinct routers when possible (the paper's
     Mercator setup attaches each end node to its own router) *)
  let attach =
    if n_endpoints <= n_total then begin
      let routers = Array.init n_total (fun i -> i) in
      Rng.shuffle rng routers;
      Array.sub routers 0 n_endpoints
    end
    else Array.init n_endpoints (fun _ -> Rng.int rng n_total)
  in
  let lan = Array.make n_endpoints 0.0 in
  make_routed ~name:"mercator" ~n_endpoints ~graph ~attach ~lan ~scale:hop_delay

let corpnet ?(n_routers = 298) ?(n_hubs = 12) ~rng ~n_endpoints () =
  if n_endpoints <= 0 || n_hubs >= n_routers then invalid_arg "Topology.corpnet";
  let graph = Graph.create n_routers in
  let hubs = Array.init n_hubs (fun i -> i) in
  (* WAN core: hub mesh with wide-area delays (campuses world-wide) *)
  (* complete hub mesh: corporate WANs are engineered, so a detour via a
     third campus costs little more than the direct WAN path *)
  for i = 0 to n_hubs - 1 do
    for j = i + 1 to n_hubs - 1 do
      Graph.add_edge graph i j (uniform rng 0.010 0.080)
    done
  done;
  connect_cluster rng graph hubs ~extra:0 ~weight:(fun () -> uniform rng 0.010 0.080);
  (* each hub anchors one campus: its routers interconnect with sub-ms
     LAN delays, so most machine pairs on a campus are ~1-3 ms apart —
     the locality PNS exploits to keep CorpNet's RDP the lowest of the
     three topologies *)
  for v = n_hubs to n_routers - 1 do
    let campus = (v - n_hubs) mod n_hubs in
    Graph.add_edge graph v campus (uniform rng 0.0003 0.0015);
    (* a couple of intra-campus cross-links *)
    let sibling = n_hubs + campus + (n_hubs * Rng.int rng (max 1 ((n_routers - n_hubs) / n_hubs))) in
    if sibling < n_routers && sibling <> v then
      Graph.add_edge graph v sibling (uniform rng 0.0003 0.0015)
  done;
  Graph.ensure_connected graph rng ~weight:(fun () -> uniform rng 0.010 0.080);
  let attach = Array.init n_endpoints (fun _ -> Rng.int rng n_routers) in
  let lan = Array.make n_endpoints 0.0005 in
  make_routed ~name:"corpnet" ~n_endpoints ~graph ~attach ~lan ~scale:1.0
