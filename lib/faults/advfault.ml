type behavior = { misroute : bool; drop : bool; poison : bool }

let no_behavior = { misroute = false; drop = false; poison = false }

let behavior_name b =
  let parts =
    (if b.misroute then [ "misroute" ] else [])
    @ (if b.drop then [ "drop" ] else [])
    @ if b.poison then [ "poison" ] else []
  in
  match parts with [] -> "honest" | ps -> String.concat "+" ps

(* each compromised address's behaviour, indexed by address, and how
   many there are *)
type t = { desc : string; by_addr : behavior option array; count : int }

let none = { desc = "none"; by_addr = [||]; count = 0 }

let of_array by_addr ~desc =
  let count = Array.fold_left (fun n b -> if Option.is_some b then n + 1 else n) 0 by_addr in
  { desc = desc count; by_addr; count }

let merge a b =
  {
    misroute = a.misroute || b.misroute;
    drop = a.drop || b.drop;
    poison = a.poison || b.poison;
  }

let compromise behavior ~addrs () =
  if behavior = no_behavior then invalid_arg "Advfault.compromise: behavior";
  if List.exists (fun a -> a < 0) addrs then invalid_arg "Advfault.compromise: address";
  let by_addr = Array.make (List.fold_left max (-1) addrs + 1) None in
  List.iter (fun a -> by_addr.(a) <- Some behavior) addrs;
  of_array by_addr ~desc:(fun n ->
      Printf.sprintf "adversary(%d nodes %s)" n (behavior_name behavior))

let iter t f = Array.iteri (fun addr b -> Option.iter (f addr) b) t.by_addr

let compose = function
  | [] -> none
  | [ t ] -> t
  | ts ->
      let len = List.fold_left (fun n t -> max n (Array.length t.by_addr)) 0 ts in
      let by_addr = Array.make len None in
      let add addr b =
        by_addr.(addr) <- Some (Option.fold ~none:b ~some:(fun a -> merge a b) by_addr.(addr))
      in
      List.iter (fun t -> iter t add) ts;
      of_array by_addr ~desc:(fun _ -> String.concat " + " (List.map (fun t -> t.desc) ts))

(* the harness asks on every probe and lookup hop: one bounds check and
   one read *)
let behavior_of t ~addr =
  if addr >= 0 && addr < Array.length t.by_addr then Array.unsafe_get t.by_addr addr else None

let compromised t = t.count
let describe t = t.desc

type lookup_action = Pass | Drop | Misroute of Pastry.Peer.t

let on_lookup b ~members ~key ~seq ~hops =
  if b.drop && ((not b.misroute) || seq land 1 = 1) then Drop
  else if b.misroute && hops < 64 && members <> [] then begin
    let farther (x : Pastry.Peer.t) (y : Pastry.Peer.t) =
      Pastry.Nodeid.compare_ring_dist ~key y.id x.id
    in
    let away = List.sort farther members in
    Misroute (List.nth away (hops mod min 4 (List.length away)))
  end
  else Pass

let forged_ids victim =
  List.concat_map
    (fun k ->
      let off = Pastry.Nodeid.of_int k in
      [ Pastry.Nodeid.add victim off; Pastry.Nodeid.sub victim off ])
    [ 1; 2 ]
