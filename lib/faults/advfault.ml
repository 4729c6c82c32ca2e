type behavior = { misroute : bool; drop : bool; poison : bool }

let no_behavior = { misroute = false; drop = false; poison = false }

let behavior_name b =
  let parts =
    (if b.misroute then [ "misroute" ] else [])
    @ (if b.drop then [ "drop" ] else [])
    @ if b.poison then [ "poison" ] else []
  in
  match parts with [] -> "honest" | ps -> String.concat "+" ps

type t = { desc : string; tbl : (int, behavior) Hashtbl.t }

let none = { desc = "none"; tbl = Hashtbl.create 1 }

let merge a b =
  {
    misroute = a.misroute || b.misroute;
    drop = a.drop || b.drop;
    poison = a.poison || b.poison;
  }

let compromise behavior ~addrs () =
  if behavior = no_behavior then invalid_arg "Advfault.compromise: behavior";
  let tbl = Hashtbl.create (max 16 (List.length addrs)) in
  List.iter (fun a -> Hashtbl.replace tbl a behavior) addrs;
  {
    desc =
      Printf.sprintf "adversary(%d nodes %s)" (Hashtbl.length tbl)
        (behavior_name behavior);
    tbl;
  }

let compose = function
  | [] -> none
  | [ t ] -> t
  | ts ->
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun t ->
          Hashtbl.iter
            (fun addr b ->
              let b' =
                match Hashtbl.find_opt tbl addr with
                | Some prev -> merge prev b
                | None -> b
              in
              Hashtbl.replace tbl addr b')
            t.tbl)
        ts;
      { desc = String.concat " + " (List.map (fun t -> t.desc) ts); tbl }

let behavior_of t ~addr = Hashtbl.find_opt t.tbl addr
let compromised t = Hashtbl.length t.tbl
let iter t f = Hashtbl.iter f t.tbl
let describe t = t.desc
