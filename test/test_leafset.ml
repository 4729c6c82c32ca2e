module Nodeid = Pastry.Nodeid
module Peer = Pastry.Peer
module Leafset = Pastry.Leafset
module Rng = Repro_util.Rng

let peer i = Peer.make (Nodeid.of_int i) i

let ls ?(l = 8) me_i =
  Leafset.create ~l ~me:(peer me_i)

let ids_of peers = List.map (fun p -> Nodeid.to_hex p.Peer.id) peers

(* x / 2 as an unsigned 128-bit number *)
let half x =
  let s = Nodeid.to_raw x in
  Nodeid.of_string
    (String.init 16 (fun i ->
         let carry = if i = 0 then 0 else Char.code s.[i - 1] land 1 in
         Char.chr ((carry lsl 7) lor (Char.code s.[i] lsr 1))))

let top_bit x = Char.code (Nodeid.to_raw x).[0] land 0x80 <> 0

(* the midpoint of the shorter arc between a and b *)
let between a b =
  let d = Nodeid.cw_dist a b in
  if top_bit d then Nodeid.add b (half (Nodeid.cw_dist b a)) else Nodeid.add a (half d)

let test_create_validation () =
  Alcotest.check_raises "odd l" (Invalid_argument "Leafset.create: l must be even and >= 2")
    (fun () -> ignore (ls ~l:3 0))

let test_add_remove_mem () =
  let t = ls 100 in
  Alcotest.(check bool) "added" true (Leafset.add t (peer 90));
  Alcotest.(check bool) "mem" true (Leafset.mem t (Nodeid.of_int 90));
  Alcotest.(check bool) "duplicate" false (Leafset.add t (peer 90));
  Alcotest.(check bool) "self ignored" false (Leafset.add t (peer 100));
  Alcotest.(check bool) "removed" true (Leafset.remove t (Nodeid.of_int 90));
  Alcotest.(check bool) "gone" false (Leafset.mem t (Nodeid.of_int 90));
  Alcotest.(check bool) "remove absent" false (Leafset.remove t (Nodeid.of_int 90))

let test_neighbor_ordering () =
  (* me=100; ring neighbours 90,95 (left) and 105,110 (right); l=4 keeps
     the sides exact (larger l would wrap this tiny ring) *)
  let t = ls ~l:4 100 in
  List.iter (fun i -> ignore (Leafset.add t (peer i))) [ 90; 110; 95; 105 ];
  let get = function Some p -> p.Peer.addr | None -> -1 in
  Alcotest.(check int) "left neighbor" 95 (get (Leafset.left_neighbor t));
  Alcotest.(check int) "right neighbor" 105 (get (Leafset.right_neighbor t));
  Alcotest.(check int) "leftmost" 90 (get (Leafset.leftmost t));
  Alcotest.(check int) "rightmost" 110 (get (Leafset.rightmost t))

let test_capacity_trim () =
  (* l=4 -> 2 per side; the closest two on each side must win *)
  let t = ls ~l:4 100 in
  List.iter (fun i -> ignore (Leafset.add t (peer i))) [ 80; 90; 95; 105; 110; 120 ];
  Alcotest.(check int) "left size" 2 (Leafset.left_size t);
  Alcotest.(check int) "right size" 2 (Leafset.right_size t);
  Alcotest.(check bool) "80 evicted" false (Leafset.mem t (Nodeid.of_int 80));
  Alcotest.(check bool) "95 kept" true (Leafset.mem t (Nodeid.of_int 95));
  Alcotest.(check bool) "120 evicted" false (Leafset.mem t (Nodeid.of_int 120))

let test_wrap_small_ring () =
  (* 3-node ring with l=8: all other nodes appear on both sides *)
  let t = ls 100 in
  ignore (Leafset.add t (peer 10));
  ignore (Leafset.add t (peer 200));
  Alcotest.(check bool) "wraps" true (Leafset.wraps t);
  Alcotest.(check bool) "complete via wrap" true (Leafset.complete t);
  Alcotest.(check int) "two distinct members" 2 (Leafset.size t)

let test_complete () =
  let t = ls ~l:4 100 in
  Alcotest.(check bool) "empty is complete (singleton)" true (Leafset.complete t);
  ignore (Leafset.add t (peer 90));
  (* one member, appears on both sides -> wrap -> complete *)
  Alcotest.(check bool) "two-node ring complete" true (Leafset.complete t);
  (* large ring: fill both sides *)
  let t = ls ~l:4 1000 in
  List.iter
    (fun i -> ignore (Leafset.add t (peer i)))
    [ 900; 950; 1050; 1100; 10; 2000; 3000; 4000; 5000 ];
  Alcotest.(check bool) "full sides complete" true (Leafset.complete t)

let test_covers () =
  let t = ls ~l:4 100 in
  List.iter (fun i -> ignore (Leafset.add t (peer i))) [ 80; 90; 110; 120; 150; 60 ];
  Alcotest.(check bool) "inside arc" true (Leafset.covers t (Nodeid.of_int 105));
  Alcotest.(check bool) "at me" true (Leafset.covers t (Nodeid.of_int 100));
  Alcotest.(check bool) "outside" false (Leafset.covers t (Nodeid.of_int 500));
  (* singleton covers everything *)
  let t1 = ls 5 in
  Alcotest.(check bool) "singleton covers" true (Leafset.covers t1 (Nodeid.of_int 99999))

let test_closest () =
  let t = ls ~l:8 100 in
  List.iter (fun i -> ignore (Leafset.add t (peer i))) [ 90; 95; 105; 110 ];
  Alcotest.(check int) "key 104 -> 105" 105 (Leafset.closest t (Nodeid.of_int 104)).Peer.addr;
  Alcotest.(check int) "key 99 -> me" 100 (Leafset.closest t (Nodeid.of_int 99)).Peer.addr;
  Alcotest.(check int) "key 92 -> 90 (tie: smaller id)" 90
    (Leafset.closest t (Nodeid.of_int 92)).Peer.addr

let test_closest_excluding () =
  let t = ls ~l:8 100 in
  List.iter (fun i -> ignore (Leafset.add t (peer i))) [ 90; 95; 105; 110 ];
  let excl id = Nodeid.equal id (Nodeid.of_int 105) in
  (* 105 excluded: me (distance 4) beats 110 (distance 6) *)
  Alcotest.(check int) "next best" 100
    (Leafset.closest_excluding t (Nodeid.of_int 104) ~excluded:excl).Peer.addr

let test_would_admit_matches_add () =
  let rng = Rng.create 55 in
  for _ = 1 to 100 do
    let me = Nodeid.random rng in
    let t = Leafset.create ~l:8 ~me:(Peer.make me 0) in
    for k = 1 to 12 do
      ignore (Leafset.add t (Peer.make (Nodeid.random rng) k))
    done;
    let candidate = Nodeid.random rng in
    let predicted = Leafset.would_admit t candidate in
    let actual = Leafset.add t (Peer.make candidate 99) in
    Alcotest.(check bool) "would_admit = add changes" predicted actual
  done

(* the queries on the routing path read the flat distances and allocate
   nothing, whether or not the compiler inlines Nodeid across modules *)
let test_queries_allocate_nothing () =
  let rng = Rng.create 77 in
  let me = Peer.make (Nodeid.random rng) 0 in
  let t = Leafset.create ~l:32 ~me in
  let pop = Array.init 150 (fun k -> Peer.make (Nodeid.random rng) (k + 1)) in
  Array.iter (fun p -> ignore (Leafset.add t p)) pop;
  let keys = Array.init 64 (fun k -> between me.Peer.id pop.(k).Peer.id) in
  let excluded id = Char.code (Nodeid.to_raw id).[15] land 7 = 0 in
  let words f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      f ()
    done;
    (Gc.minor_words () -. w0) /. 1000.0
  in
  let check name f = Alcotest.(check (float 0.01)) name 0.0 (words f) in
  let i = ref 0 in
  let next () =
    incr i;
    !i land 63
  in
  check "closest_excluding" (fun () ->
      ignore (Leafset.closest_excluding t keys.(next ()) ~excluded));
  check "would_admit" (fun () -> ignore (Leafset.would_admit t keys.(next ())));
  check "mem" (fun () -> ignore (Leafset.mem t pop.(next ()).Peer.id));
  check "remove + add" (fun () ->
      let p = pop.(next ()) in
      if Leafset.remove t p.Peer.id then ignore (Leafset.add t p))

let test_members_dedup () =
  let t = ls 100 in
  ignore (Leafset.add t (peer 10));
  ignore (Leafset.add t (peer 200));
  (* both appear on both sides; members must be distinct *)
  let ms = List.sort_uniq compare (ids_of (Leafset.members t)) in
  Alcotest.(check int) "distinct" (List.length ms) (List.length (Leafset.members t))

(* brute-force oracle comparison for closest *)
let qcheck_closest_oracle =
  QCheck.Test.make ~name:"closest matches brute force" ~count:200
    QCheck.(pair small_int (int_range 1 96))
    (fun (seed, pop) ->
      let rng = Rng.create seed in
      let me = Nodeid.random rng in
      let t = Leafset.create ~l:32 ~me:(Peer.make me 0) in
      for k = 1 to pop do
        ignore (Leafset.add t (Peer.make (Nodeid.random rng) k))
      done;
      (* up to l members the set wraps and holds everybody; above l it
         does not, and a random key mostly falls outside its arc, so half
         the keys sit between [me] and a member *)
      let candidates = Peer.make me 0 :: Leafset.members t in
      let key =
        if Rng.bool rng then Nodeid.random rng
        else between me (Rng.pick rng (Array.of_list candidates)).Peer.id
      in
      let best = Leafset.closest t key in
      List.exists (Peer.equal best) candidates
      && List.for_all
           (fun p -> Peer.equal p best || not (Nodeid.closer ~key p.Peer.id best.Peer.id))
           candidates)

(* model-based check: after any sequence of adds, each side must equal
   the closest-per-side prefix of a naive sorted model. (Removals are
   excluded on purpose: a real leaf set cannot resurrect nodes it evicted
   earlier, so after a removal it legitimately knows less than the
   model.) *)
let qcheck_model_sides =
  QCheck.Test.make ~name:"sides match naive model" ~count:200 QCheck.int (fun seed ->
      let rng = Rng.create seed in
      let me = Nodeid.random rng in
      let l = 8 in
      let t = Leafset.create ~l ~me:(Peer.make me 0) in
      let model = Hashtbl.create 16 in
      let ops = 30 + Rng.int rng 30 in
      for k = 1 to ops do
        let id = Nodeid.random rng in
        if not (Nodeid.equal id me) then begin
          ignore (Leafset.add t (Peer.make id k));
          Hashtbl.replace model id ()
        end
      done;
      let ids = Hashtbl.fold (fun id () acc -> id :: acc) model [] in
      let by_cw =
        List.sort
          (fun a b -> Nodeid.compare (Nodeid.cw_dist me a) (Nodeid.cw_dist me b))
          ids
      in
      let by_ccw =
        List.sort
          (fun a b -> Nodeid.compare (Nodeid.cw_dist a me) (Nodeid.cw_dist b me))
          ids
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: r -> x :: take (n - 1) r
      in
      let expect_right = take (l / 2) by_cw and expect_left = take (l / 2) by_ccw in
      (* leaf set must contain exactly the union of the two prefixes *)
      let expected =
        List.sort_uniq Nodeid.compare (expect_left @ expect_right)
      in
      let actual =
        List.sort_uniq Nodeid.compare
          (List.map (fun p -> p.Peer.id) (Leafset.members t))
      in
      List.length expected = List.length actual
      && List.for_all2 Nodeid.equal expected actual)

(* ------------------------------------------------------------------ *)
(* Reference model: sorted peer lists                                   *)
(* ------------------------------------------------------------------ *)

(* The original list implementation: each side a sorted [Peer.t list],
   membership by [List.exists], [members] built with [@]. The library
   keeps each side in a sorted array with maintained counts; every query
   must agree with this model after any interleaving of adds and
   removes. *)
module Model = struct
  type t = { l : int; me : Peer.t; mutable left : Peer.t list; mutable right : Peer.t list }

  let create ~l ~me = { l; me; left = []; right = [] }
  let side_mem side id = List.exists (fun p -> Nodeid.equal p.Peer.id id) side

  let side_insert ~dist ~cap side peer =
    if side_mem side peer.Peer.id then (side, false)
    else begin
      let d = dist peer.Peer.id in
      let rec ins = function
        | [] -> [ peer ]
        | p :: rest ->
            if Nodeid.compare d (dist p.Peer.id) < 0 then peer :: p :: rest else p :: ins rest
      in
      let trimmed = List.filteri (fun i _ -> i < cap) (ins side) in
      (trimmed, side_mem trimmed peer.Peer.id)
    end

  let add t peer =
    if Nodeid.equal peer.Peer.id t.me.Peer.id then false
    else begin
      let cap = t.l / 2 in
      let left', c1 =
        side_insert ~dist:(fun id -> Nodeid.cw_dist id t.me.Peer.id) ~cap t.left peer
      in
      let right', c2 =
        side_insert ~dist:(fun id -> Nodeid.cw_dist t.me.Peer.id id) ~cap t.right peer
      in
      t.left <- left';
      t.right <- right';
      c1 || c2
    end

  let remove t id =
    let had = side_mem t.left id || side_mem t.right id in
    let keep p = not (Nodeid.equal p.Peer.id id) in
    t.left <- List.filter keep t.left;
    t.right <- List.filter keep t.right;
    had

  let mem t id = side_mem t.left id || side_mem t.right id

  let members t =
    let right_ids = List.map (fun p -> p.Peer.id) t.right in
    t.right @ List.filter (fun p -> not (List.exists (Nodeid.equal p.Peer.id) right_ids)) t.left

  let rec last = function [] -> None | [ x ] -> Some x | _ :: rest -> last rest

  let wraps t =
    t.left <> [] && t.right <> [] && List.exists (fun p -> side_mem t.right p.Peer.id) t.left

  let complete t =
    let cap = t.l / 2 in
    (t.left = [] && t.right = [])
    || (List.length t.left = cap && List.length t.right = cap)
    || wraps t

  let covers t k =
    wraps t
    ||
    match (last t.left, last t.right) with
    | None, None -> true
    | Some lm, Some rm -> Nodeid.in_cw_arc ~from:lm.Peer.id ~til:rm.Peer.id k
    | Some _, None | None, Some _ -> false

  let closest_excluding t ~members k ~excluded =
    List.fold_left
      (fun best p -> if Nodeid.closer ~key:k p.Peer.id best.Peer.id then p else best)
      t.me
      (List.filter (fun p -> not (excluded p.Peer.id)) members)

  let would_admit t id =
    (not (Nodeid.equal id t.me.Peer.id))
    && (not (mem t id))
    &&
    let cap = t.l / 2 in
    let fits side dist =
      List.length side < cap
      || match last side with None -> true | Some far -> Nodeid.compare (dist id) (dist far.Peer.id) < 0
    in
    fits t.left (fun x -> Nodeid.cw_dist x t.me.Peer.id)
    || fits t.right (fun x -> Nodeid.cw_dist t.me.Peer.id x)
end

let peer_str p = Printf.sprintf "%s@%d" (Nodeid.to_hex p.Peer.id) p.Peer.addr
let opt_str = function Some p -> peer_str p | None -> "-"
let list_str ps = String.concat " " (List.map peer_str ps)

(* Unwrapped, both sides non-empty, and the arc leftmost → me → rightmost
   shorter than half the ring: the states in which closest_excluding
   binary-searches a line instead of scanning *)
let on_line m =
  (not (Model.wraps m))
  &&
  match (Model.last m.Model.left, Model.last m.Model.right) with
  | Some lm, Some rm ->
      let a = Nodeid.cw_dist lm.Peer.id m.Model.me.Peer.id
      and b = Nodeid.cw_dist m.Model.me.Peer.id rm.Peer.id in
      (not (top_bit a)) && (not (top_bit b)) && not (top_bit (Nodeid.add a b))
  | _ -> false

(* Random add/remove interleavings over a population of [pop] ids, checked
   against [Model] after every operation. Adds sometimes re-announce a
   known id under another address (the sides may then disagree on the
   address). [prefill] adds that many population ids first, checking
   only the adds. Returns how many checked states wrapped and how many
   did not, and how many were {!on_line} and how many not. *)
let run_model_check ?(prefill = 0) ~l ~pop ~ops rng =
  let me = Peer.make (Nodeid.random rng) 0 in
  let t = Leafset.create ~l ~me and m = Model.create ~l ~me in
  let ids = Array.init pop (fun _ -> Nodeid.random rng) in
  for k = 1 to prefill do
    let p = Peer.make ids.(Rng.int rng pop) k in
    if Model.add m p <> Leafset.add t p then
      Alcotest.failf "l=%d pop=%d prefill %d: add differs" l pop k
  done;
  let any_id () =
    match Rng.int rng 20 with
    | 0 -> me.Peer.id
    | 1 -> Nodeid.random rng
    | _ -> ids.(Rng.int rng pop)
  in
  let wrapped = ref 0 and unwrapped = ref 0 and line = ref 0 and off_line = ref 0 in
  for step = 1 to ops do
    (* one failure report per mismatch, no log line per passing check *)
    let eq what show expected actual =
      if expected <> actual then
        Alcotest.failf "l=%d pop=%d step %d: %s: model %s, leafset %s" l pop step what
          (show expected) (show actual)
    in
    let b = string_of_bool and i = string_of_int in
    (if Rng.int rng 3 = 0 then begin
       let id = any_id () in
       eq "remove" b (Model.remove m id) (Leafset.remove t id)
     end
     else begin
       let id = any_id () in
       let addr = if Rng.int rng 10 = 0 then 1000 + step else Hashtbl.hash id land 0xFFFF in
       let p = Peer.make id addr in
       eq "add" b (Model.add m p) (Leafset.add t p)
     end);
    eq "members" list_str (Model.members m) (Leafset.members t);
    eq "size" i (List.length (Model.members m)) (Leafset.size t);
    eq "left size" i (List.length m.Model.left) (Leafset.left_size t);
    eq "right size" i (List.length m.Model.right) (Leafset.right_size t);
    eq "left neighbor" opt_str (List.nth_opt m.Model.left 0) (Leafset.left_neighbor t);
    eq "right neighbor" opt_str (List.nth_opt m.Model.right 0) (Leafset.right_neighbor t);
    eq "leftmost" opt_str (Model.last m.Model.left) (Leafset.leftmost t);
    eq "rightmost" opt_str (Model.last m.Model.right) (Leafset.rightmost t);
    eq "wraps" b (Model.wraps m) (Leafset.wraps t);
    eq "complete" b (Model.complete m) (Leafset.complete t);
    if Model.wraps m then incr wrapped else incr unwrapped;
    if on_line m then incr line else incr off_line;
    (* keys: random, me, every member, one step either side of the arc
       ends, both middles of each gap between ring-adjacent points (an
       even gap gives equal ring distances, so the identifier tie-break
       decides) and the middle between me and each member *)
    let one = Nodeid.of_int 1 in
    let near id = [ Nodeid.add id one; Nodeid.sub id one ] in
    let member_ids = List.map (fun p -> p.Peer.id) (Model.members m) in
    let ring = List.sort_uniq Nodeid.compare (me.Peer.id :: member_ids) in
    let middles a b =
      let mid = Nodeid.add a (half (Nodeid.cw_dist a b)) in
      [ mid; Nodeid.add mid one ]
    in
    let rec gaps = function
      | a :: (b :: _ as rest) -> middles a b @ gaps rest
      | [ a ] -> middles a (List.hd ring)
      | [] -> []
    in
    let keys =
      Nodeid.random rng :: me.Peer.id
      :: (member_ids
         @ List.concat_map
             (fun p -> near p.Peer.id)
             (List.filter_map Fun.id [ Model.last m.Model.left; Model.last m.Model.right ])
         @ gaps ring
         @ List.map (between me.Peer.id) member_ids)
    in
    let excluded_ids = Hashtbl.create 16 in
    Array.iter (fun id -> if Rng.int rng 3 = 0 then Hashtbl.replace excluded_ids id ()) ids;
    let excluded = Hashtbl.mem excluded_ids in
    let members = Model.members m in
    List.iter
      (fun k ->
        eq "covers" b (Model.covers m k) (Leafset.covers t k);
        eq "closest" peer_str
          (Model.closest_excluding ~members m k ~excluded:(fun _ -> false))
          (Leafset.closest t k);
        eq "closest_excluding" peer_str
          (Model.closest_excluding ~members m k ~excluded)
          (Leafset.closest_excluding t k ~excluded))
      keys;
    let probe = any_id () in
    eq "would_admit" b (Model.would_admit m probe) (Leafset.would_admit t probe);
    eq "mem" b (Model.mem m probe) (Leafset.mem t probe)
  done;
  (!wrapped, !unwrapped, !line, !off_line)

let test_model_interleavings l () =
  let rng = Rng.create (7 * l) in
  let wrapped = ref 0 and unwrapped = ref 0 and line = ref 0 and off_line = ref 0 in
  for _ = 1 to 40 do
    (* populations from well below l (every side holds everybody, the
       set wraps) to well above it (full, disjoint sides) *)
    let pop = 1 + Rng.int rng (3 * l) in
    let w, u, ln, off = run_model_check ~l ~pop ~ops:150 rng in
    wrapped := !wrapped + w;
    unwrapped := !unwrapped + u;
    line := !line + ln;
    off_line := !off_line + off
  done;
  (* populations of 4l to 8l, mostly present from the start: the arc
     shrinks below half the ring, where closest_excluding searches *)
  for _ = 1 to 10 do
    let pop = (4 + Rng.int rng 5) * l in
    let w, u, ln, off = run_model_check ~l ~pop ~prefill:pop ~ops:150 rng in
    wrapped := !wrapped + w;
    unwrapped := !unwrapped + u;
    line := !line + ln;
    off_line := !off_line + off
  done;
  Alcotest.(check bool) "wrapped states seen" true (!wrapped > 100);
  Alcotest.(check bool) "unwrapped states seen" true (!unwrapped > 100);
  Alcotest.(check bool) "binary-search (line) states seen" true (!line >= 100);
  Alcotest.(check bool) "scan states seen" true (!off_line >= 100)

(* Arcs of 2^127 − 1 (binary search), 2^127 and 2^127 + 1 (scan), each
   side's two farthest members excluded, against the model for keys at,
   between, next to and beyond every member. The right end sits at
   2^126 + 2^63, so the arc's low halves carry from 2^127 on. *)
let test_half_ring_boundary () =
  let one = Nodeid.of_int 1 in
  let quarter = Nodeid.of_hex "40000000000000000000000000000000" in
  let right_far = Nodeid.of_hex "40000000000000008000000000000000" in
  let left_far = Nodeid.sub (Nodeid.add quarter quarter) right_far in
  let me = Peer.make (Nodeid.of_hex "0123456789abcdef0123456789abcdef") 0 in
  let rng = Rng.create 3 in
  List.iter
    (fun (span, left_far) ->
      let fractions far = [ half (half (half far)); half (half far); half far; far ] in
      let right = List.map (Nodeid.add me.Peer.id) (fractions right_far) in
      let left = List.map (Nodeid.sub me.Peer.id) (fractions left_far) in
      let t = Leafset.create ~l:8 ~me and m = Model.create ~l:8 ~me in
      List.iteri
        (fun k id ->
          let p = Peer.make id (k + 1) in
          ignore (Model.add m p);
          ignore (Leafset.add t p))
        (right @ left);
      let ctx what = Printf.sprintf "span %s: %s" span what in
      Alcotest.(check bool) (ctx "unwrapped") false (Leafset.wraps t);
      Alcotest.(check int) (ctx "left full") 4 (Leafset.left_size t);
      Alcotest.(check int) (ctx "right full") 4 (Leafset.right_size t);
      let far_ids = [ List.nth right 2; List.nth right 3; List.nth left 2; List.nth left 3 ] in
      let excluded id = List.exists (Nodeid.equal id) far_ids in
      let points = me.Peer.id :: (right @ left) in
      let keys =
        List.concat_map
          (fun a ->
            a :: Nodeid.add a one :: Nodeid.sub a one
            :: Nodeid.add a quarter :: Nodeid.sub a quarter
            :: List.map (between a) points)
          points
        @ List.init 200 (fun _ -> Nodeid.random rng)
      in
      let members = Model.members m in
      List.iter
        (fun k ->
          let check what excluded =
            let expected = Model.closest_excluding m ~members k ~excluded in
            let actual = Leafset.closest_excluding t k ~excluded in
            if not (Peer.equal expected actual) then
              Alcotest.failf "%s, key %s: model %s, leafset %s" (ctx what) (Nodeid.to_hex k)
                (peer_str expected) (peer_str actual)
          in
          check "closest" (fun _ -> false);
          check "closest_excluding" excluded)
        keys)
    [
      ("2^127 - 1", Nodeid.sub left_far one);
      ("2^127", left_far);
      ("2^127 + 1", Nodeid.add left_far one);
    ]

let suite =
  [
    ( "leafset",
      [
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "add/remove/mem" `Quick test_add_remove_mem;
        Alcotest.test_case "neighbor ordering" `Quick test_neighbor_ordering;
        Alcotest.test_case "capacity trim" `Quick test_capacity_trim;
        Alcotest.test_case "wrap on small ring" `Quick test_wrap_small_ring;
        Alcotest.test_case "completeness" `Quick test_complete;
        Alcotest.test_case "covers" `Quick test_covers;
        Alcotest.test_case "closest with tie-break" `Quick test_closest;
        Alcotest.test_case "closest excluding" `Quick test_closest_excluding;
        Alcotest.test_case "would_admit matches add" `Quick test_would_admit_matches_add;
        Alcotest.test_case "members dedup" `Quick test_members_dedup;
        QCheck_alcotest.to_alcotest qcheck_closest_oracle;
        QCheck_alcotest.to_alcotest qcheck_model_sides;
        Alcotest.test_case "matches list model (l=8)" `Quick (test_model_interleavings 8);
        Alcotest.test_case "matches list model (l=32)" `Quick (test_model_interleavings 32);
        Alcotest.test_case "closest_excluding at half-ring arcs" `Quick test_half_ring_boundary;
        Alcotest.test_case "routing-path queries allocate nothing" `Quick
          test_queries_allocate_nothing;
      ] );
  ]
