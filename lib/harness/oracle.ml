module Nodeid = Pastry.Nodeid

(* the members as a sorted id array with a parallel address array; the
   first [n] slots are live *)
type t = { mutable ids : Nodeid.t array; mutable addrs : int array; mutable n : int }

let create () = { ids = [||]; addrs = [||]; n = 0 }
let size t = t.n

(* the first index whose id is at least [id] ([t.n] if none) *)
let lower_bound t id =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Nodeid.compare t.ids.(mid) id < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let find t id =
  let i = lower_bound t id in
  if i < t.n && Nodeid.equal t.ids.(i) id then Some i else None

let mem t id = Option.is_some (find t id)

let add t id addr =
  let i = lower_bound t id in
  if i < t.n && Nodeid.equal t.ids.(i) id then t.addrs.(i) <- addr
  else begin
    if t.n = Array.length t.ids then begin
      let cap = max 16 (2 * t.n) in
      let ids = Array.make cap id and addrs = Array.make cap 0 in
      Array.blit t.ids 0 ids 0 t.n;
      Array.blit t.addrs 0 addrs 0 t.n;
      t.ids <- ids;
      t.addrs <- addrs
    end;
    Array.blit t.ids i t.ids (i + 1) (t.n - i);
    Array.blit t.addrs i t.addrs (i + 1) (t.n - i);
    t.ids.(i) <- id;
    t.addrs.(i) <- addr;
    t.n <- t.n + 1
  end

let remove t id =
  match find t id with
  | None -> ()
  | Some i ->
      Array.blit t.ids (i + 1) t.ids i (t.n - i - 1);
      Array.blit t.addrs (i + 1) t.addrs i (t.n - i - 1);
      t.n <- t.n - 1

type ring_audit = {
  audited : int;
  left_ok : int;
  right_ok : int;
  agreement : float;
}

let ring_audit t ~neighbors =
  let n = t.n in
  (* ground-truth ring neighbours with wrap; a singleton ring has none *)
  let expect claimed i =
    match claimed with
    | None -> n <= 1
    | Some x -> n > 1 && Nodeid.equal x t.ids.(i)
  in
  let audited = ref 0 and left_ok = ref 0 and right_ok = ref 0 in
  for i = 0 to n - 1 do
    match neighbors t.addrs.(i) with
    | None -> ()
    | Some (l, r) ->
        incr audited;
        if expect l ((i + n - 1) mod n) then incr left_ok;
        if expect r ((i + 1) mod n) then incr right_ok
  done;
  {
    audited = !audited;
    left_ok = !left_ok;
    right_ok = !right_ok;
    agreement =
      (if !audited = 0 then 1.0
       else float_of_int (!left_ok + !right_ok) /. float_of_int (2 * !audited));
  }

let closest t key =
  if t.n = 0 then None
  else begin
    (* candidates: ring successor and predecessor of the key (with wrap) *)
    let i = lower_bound t key in
    let succ = if i < t.n then i else 0 and pred = if i > 0 then i - 1 else t.n - 1 in
    let best =
      if succ = pred || Nodeid.closer ~key t.ids.(succ) t.ids.(pred) then succ else pred
    in
    Some (t.ids.(best), t.addrs.(best))
  end
