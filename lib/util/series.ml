type cell = { mutable sum : float; mutable n : int }

type t = {
  window : float;
  cells : (int, cell) Hashtbl.t;
  (* the window [add] last wrote: samples mostly arrive in time order *)
  mutable last_idx : int;
  mutable last : cell option;
}

let create ~window =
  if window <= 0.0 then invalid_arg "Series.create";
  { window; cells = Hashtbl.create 64; last_idx = 0; last = None }

let add t ~time v =
  let idx = int_of_float (floor (time /. t.window)) in
  let cell =
    match t.last with
    | Some c when t.last_idx = idx -> c
    | Some _ | None ->
        let c =
          match Hashtbl.find_opt t.cells idx with
          | Some c -> c
          | None ->
              let c = { sum = 0.0; n = 0 } in
              Hashtbl.add t.cells idx c;
              c
        in
        t.last_idx <- idx;
        t.last <- Some c;
        c
  in
  cell.sum <- cell.sum +. v;
  cell.n <- cell.n + 1

let count t ~time = add t ~time 1.0

let copy t =
  let cells = Hashtbl.create (Hashtbl.length t.cells) in
  Hashtbl.iter (fun idx c -> Hashtbl.add cells idx { c with sum = c.sum }) t.cells;
  { t with cells; last = None }

let sorted_cells t =
  let xs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.cells [] in
  List.sort (fun (a, _) (b, _) -> compare a b) xs

let mid t idx = (float_of_int idx +. 0.5) *. t.window

let means t =
  sorted_cells t
  |> List.map (fun (idx, c) -> (mid t idx, c.sum /. float_of_int c.n))
  |> Array.of_list

let sums t =
  sorted_cells t |> List.map (fun (idx, c) -> (mid t idx, c.sum)) |> Array.of_list
