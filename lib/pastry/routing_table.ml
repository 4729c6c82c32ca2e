type entry = { peer : Peer.t; rtt : float }

type t = {
  b : int;
  me : Nodeid.t;
  table : entry option array array; (* rows x cols *)
  row_count : int array; (* occupied slots per row *)
  mutable count : int;
  mutable used : int; (* rows [0, used) hold every entry; row used-1 is occupied *)
}

let create ~b ~me =
  if b < 1 || b > 8 then invalid_arg "Routing_table.create: b must be in 1..8";
  let rows = Nodeid.num_digits ~b in
  let cols = 1 lsl b in
  {
    b;
    me;
    table = Array.make_matrix rows cols None;
    row_count = Array.make rows 0;
    count = 0;
    used = 0;
  }

let b t = t.b
let rows t = Array.length t.table
let cols t = Array.length t.table.(0)
let me t = t.me
let used_rows t = t.used

let slot_of t id =
  if Nodeid.equal id t.me then None
  else begin
    let r = Nodeid.shared_prefix_length ~b:t.b t.me id in
    (* r < num_digits since id <> me *)
    Some (r, Nodeid.digit ~b:t.b id r)
  end

let get t r c = t.table.(r).(c)

let find t id =
  match slot_of t id with
  | None -> None
  | Some (r, c) -> (
      match t.table.(r).(c) with
      | Some e when Nodeid.equal e.peer.Peer.id id -> Some e
      | Some _ | None -> None)

let install t r c e =
  (match t.table.(r).(c) with
  | Some _ -> ()
  | None ->
      t.count <- t.count + 1;
      t.row_count.(r) <- t.row_count.(r) + 1;
      if r >= t.used then t.used <- r + 1);
  t.table.(r).(c) <- Some e

let consider t peer ~rtt =
  match slot_of t peer.Peer.id with
  | None -> false
  | Some (r, c) -> (
      match t.table.(r).(c) with
      | None ->
          install t r c { peer; rtt };
          true
      | Some e ->
          if rtt < e.rtt then begin
            t.table.(r).(c) <- Some { peer; rtt };
            true
          end
          else false)

let set t peer ~rtt =
  match slot_of t peer.Peer.id with
  | None -> false
  | Some (r, c) ->
      install t r c { peer; rtt };
      true

let remove t id =
  match slot_of t id with
  | None -> false
  | Some (r, c) -> (
      match t.table.(r).(c) with
      | Some e when Nodeid.equal e.peer.Peer.id id ->
          t.table.(r).(c) <- None;
          t.count <- t.count - 1;
          t.row_count.(r) <- t.row_count.(r) - 1;
          while t.used > 0 && t.row_count.(t.used - 1) = 0 do
            t.used <- t.used - 1
          done;
          true
      | Some _ | None -> false)

(* [f] of each occupied slot of [row], consed onto [acc] in column
   order; only occupied slots allocate *)
let cons_row f row acc =
  let acc = ref acc in
  for c = Array.length row - 1 downto 0 do
    match row.(c) with Some e -> acc := f e :: !acc | None -> ()
  done;
  !acc

let row_entries t r = if t.row_count.(r) = 0 then [] else cons_row Fun.id t.table.(r) []

(* row-major, like [iter] *)
let collect f t =
  let acc = ref [] in
  for r = t.used - 1 downto 0 do
    if t.row_count.(r) > 0 then acc := cons_row f t.table.(r) !acc
  done;
  !acc

let entries t = collect Fun.id t
let peers t = collect (fun e -> e.peer) t

let iter f t =
  for r = 0 to t.used - 1 do
    if t.row_count.(r) > 0 then Array.iter (function Some e -> f e | None -> ()) t.table.(r)
  done

let count t = t.count

let update_rtt t id rtt =
  match slot_of t id with
  | None -> ()
  | Some (r, c) -> (
      match t.table.(r).(c) with
      | Some e when Nodeid.equal e.peer.Peer.id id -> t.table.(r).(c) <- Some { e with rtt }
      | Some _ | None -> ())

let pp fmt t =
  Format.fprintf fmt "@[<v>routing table of %a (%d entries)@," Nodeid.pp t.me t.count;
  Array.iteri
    (fun r row ->
      let occupied = cons_row Fun.id row [] in
      if occupied <> [] then
        Format.fprintf fmt "row %2d: %a@," r
          (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f " ")
             (fun f e -> Peer.pp f e.peer))
          occupied)
    t.table;
  Format.fprintf fmt "@]"
