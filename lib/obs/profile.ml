let now () = Monotonic_clock.now ()

let on = ref false

(* Phase registry: small and append-only, grown by doubling. *)
let cap = ref 16
let names = ref (Array.make !cap "")
let n_phases = ref 0

(* Per-phase accumulators, indexed by phase id. *)
let calls = ref (Array.make !cap 0)
let self_ns = ref (Array.make !cap 0L)
let total_ns = ref (Array.make !cap 0L)
let depth = ref (Array.make !cap 0)
let incl_start = ref (Array.make !cap 0L)

(* Active-phase stack and the timestamp of the last enter/leave boundary. *)
let stack = ref (Array.make 64 0)
let sp = ref 0
let mark = ref 0L

(* Wall time while enabled: closed intervals folded into [wall_acc],
   the open one starting at [wall_start]. *)
let wall_acc = ref 0L
let wall_start = ref 0L

let grow () =
  let old = !cap in
  cap := old * 2;
  let extend a zero =
    let b = Array.make !cap zero in
    Array.blit !a 0 b 0 old;
    a := b
  in
  extend names "";
  extend calls 0;
  extend self_ns 0L;
  extend total_ns 0L;
  extend depth 0;
  extend incl_start 0L

let phase name =
  let rec find i = if i >= !n_phases then -1 else if !names.(i) = name then i else find (i + 1) in
  let i = find 0 in
  if i >= 0 then i
  else begin
    if !n_phases = !cap then grow ();
    let id = !n_phases in
    !names.(id) <- name;
    n_phases := id + 1;
    id
  end

let set_enabled v =
  if v && not !on then begin
    let t = now () in
    wall_start := t;
    mark := t;
    on := true
  end
  else if (not v) && !on then begin
    let t = now () in
    (* close any phases left open so self-time stays a partition *)
    while !sp > 0 do
      let id = !stack.(!sp - 1) in
      !self_ns.(id) <- Int64.add !self_ns.(id) (Int64.sub t !mark);
      mark := t;
      !depth.(id) <- !depth.(id) - 1;
      if !depth.(id) = 0 then
        !total_ns.(id) <- Int64.add !total_ns.(id) (Int64.sub t !incl_start.(id));
      decr sp
    done;
    wall_acc := Int64.add !wall_acc (Int64.sub t !wall_start);
    on := false
  end

let enabled () = !on

let enter id =
  if !on then begin
    let t = now () in
    if !sp > 0 then begin
      let parent = !stack.(!sp - 1) in
      !self_ns.(parent) <- Int64.add !self_ns.(parent) (Int64.sub t !mark)
    end;
    if !sp = Array.length !stack then begin
      let b = Array.make (2 * !sp) 0 in
      Array.blit !stack 0 b 0 !sp;
      stack := b
    end;
    !stack.(!sp) <- id;
    incr sp;
    !calls.(id) <- !calls.(id) + 1;
    if !depth.(id) = 0 then !incl_start.(id) <- t;
    !depth.(id) <- !depth.(id) + 1;
    mark := t
  end

let leave id =
  if !on && !sp > 0 then begin
    let t = now () in
    !self_ns.(id) <- Int64.add !self_ns.(id) (Int64.sub t !mark);
    !depth.(id) <- !depth.(id) - 1;
    if !depth.(id) = 0 then
      !total_ns.(id) <- Int64.add !total_ns.(id) (Int64.sub t !incl_start.(id));
    decr sp;
    mark := t
  end

let reset () =
  for i = 0 to !n_phases - 1 do
    !calls.(i) <- 0;
    !self_ns.(i) <- 0L;
    !total_ns.(i) <- 0L;
    !depth.(i) <- 0
  done;
  sp := 0;
  wall_acc := 0L;
  let t = now () in
  wall_start := t;
  mark := t

type entry = { name : string; calls : int; self_ns : int64; total_ns : int64 }
type report = { wall_ns : int64; entries : entry list; unattributed_ns : int64 }

let report () =
  let wall =
    if !on then Int64.add !wall_acc (Int64.sub (now ()) !wall_start) else !wall_acc
  in
  let entries = ref [] in
  let self_sum = ref 0L in
  for i = !n_phases - 1 downto 0 do
    if !calls.(i) > 0 then begin
      self_sum := Int64.add !self_sum !self_ns.(i);
      entries :=
        { name = !names.(i); calls = !calls.(i); self_ns = !self_ns.(i); total_ns = !total_ns.(i) }
        :: !entries
    end
  done;
  let entries =
    List.sort (fun a b -> Int64.compare b.self_ns a.self_ns) !entries
  in
  let unattributed = Int64.sub wall !self_sum in
  let unattributed = if Int64.compare unattributed 0L < 0 then 0L else unattributed in
  { wall_ns = wall; entries; unattributed_ns = unattributed }

let s_of_ns ns = Int64.to_float ns /. 1e9

let pp_report fmt r =
  let wall_s = s_of_ns r.wall_ns in
  let pct ns = if wall_s > 0.0 then 100.0 *. s_of_ns ns /. wall_s else 0.0 in
  Format.fprintf fmt "@[<v>profile: wall %.3fs@," wall_s;
  Format.fprintf fmt "  %-24s %10s %10s %10s %6s@," "phase" "calls" "self(s)" "total(s)" "self%";
  List.iter
    (fun e ->
      Format.fprintf fmt "  %-24s %10d %10.3f %10.3f %5.1f%%@," e.name e.calls
        (s_of_ns e.self_ns) (s_of_ns e.total_ns) (pct e.self_ns))
    r.entries;
  Format.fprintf fmt "  %-24s %10s %10.3f %10s %5.1f%%@]" "(unattributed)" ""
    (s_of_ns r.unattributed_ns) "" (pct r.unattributed_ns)

let report_to_json r =
  Json.Obj
    [
      ("total_wall_s", Json.Float (s_of_ns r.wall_ns));
      ( "phases",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("name", Json.String e.name);
                   ("calls", Json.Int e.calls);
                   ("self_s", Json.Float (s_of_ns e.self_ns));
                   ("total_s", Json.Float (s_of_ns e.total_ns));
                 ])
             r.entries) );
      ("unattributed_s", Json.Float (s_of_ns r.unattributed_ns));
    ]
