type t = {
  adj : (int, float) Hashtbl.t array; (* neighbor -> weight *)
  mutable edges : int;
}

let create n =
  if n <= 0 then invalid_arg "Graph.create";
  { adj = Array.init n (fun _ -> Hashtbl.create 4); edges = 0 }

let n t = Array.length t.adj
let n_edges t = t.edges

let add_edge t u v w =
  if u = v then ()
  else begin
    if u < 0 || v < 0 || u >= n t || v >= n t then invalid_arg "Graph.add_edge";
    if w <= 0.0 then invalid_arg "Graph.add_edge: weight must be positive";
    let set a b =
      match Hashtbl.find_opt t.adj.(a) b with
      | Some old when old <= w -> false
      | Some _ ->
          Hashtbl.replace t.adj.(a) b w;
          false
      | None ->
          Hashtbl.replace t.adj.(a) b w;
          true
    in
    let fresh = set u v in
    ignore (set v u);
    if fresh then t.edges <- t.edges + 1
  end

let neighbors t u = Hashtbl.fold (fun v w acc -> (v, w) :: acc) t.adj.(u) []

let dijkstra t src =
  let nn = n t in
  let dist = Array.make nn infinity in
  dist.(src) <- 0.0;
  let heap = Repro_util.Heap.create () in
  Repro_util.Heap.push heap 0.0 src;
  while not (Repro_util.Heap.is_empty heap) do
    let d = Repro_util.Heap.min_key heap in
    let u = Repro_util.Heap.pop heap in
    if d <= dist.(u) then
      Hashtbl.iter
        (fun v w ->
          let nd = d +. w in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            Repro_util.Heap.push heap nd v
          end)
        t.adj.(u)
  done;
  dist

let components t =
  let nn = n t in
  let comp = Array.make nn (-1) in
  let next = ref 0 in
  for s = 0 to nn - 1 do
    if comp.(s) = -1 then begin
      let c = !next in
      incr next;
      let stack = ref [ s ] in
      comp.(s) <- c;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | u :: rest ->
            stack := rest;
            Hashtbl.iter
              (fun v _ ->
                if comp.(v) = -1 then begin
                  comp.(v) <- c;
                  stack := v :: !stack
                end)
              t.adj.(u)
      done
    end
  done;
  (comp, !next)

let connected t =
  let _, k = components t in
  k <= 1

let ensure_connected t rng ~weight =
  let rec go () =
    let comp, k = components t in
    if k > 1 then begin
      (* connect a vertex of component 0 with one of another component *)
      let v0 = ref (-1) and v1 = ref (-1) in
      Array.iteri
        (fun i c ->
          if c = 0 && !v0 = -1 then v0 := i;
          if c = 1 && !v1 = -1 then v1 := i)
        comp;
      (* randomize endpoints a bit within their components *)
      let pick_in c =
        let nn = n t in
        let start = Repro_util.Rng.int rng nn in
        let rec find i tries =
          if tries >= nn then -1
          else begin
            let v = (start + i) mod nn in
            if comp.(v) = c then v else find (i + 1) (tries + 1)
          end
        in
        find 0 0
      in
      let a = match pick_in 0 with -1 -> !v0 | v -> v in
      let b = match pick_in 1 with -1 -> !v1 | v -> v in
      add_edge t a b (weight ());
      go ()
    end
  in
  go ()
