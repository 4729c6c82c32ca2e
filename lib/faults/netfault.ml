module Rng = Repro_util.Rng

type verdict = Pass | Lose of { uniform : bool } | Delay of float

type t = {
  desc : string;
  decide : rng:Rng.t -> time:float -> src:int -> dst:int -> verdict;
}

let none = { desc = "none"; decide = (fun ~rng:_ ~time:_ ~src:_ ~dst:_ -> Pass) }

let check_prob name p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Netfault.%s: probability out of range" name)

let uniform ~rate =
  if rate < 0.0 || rate >= 1.0 then invalid_arg "Netfault.uniform: rate";
  if rate = 0.0 then none
  else
    {
      desc = Printf.sprintf "uniform(%.4g)" rate;
      decide =
        (fun ~rng ~time:_ ~src:_ ~dst:_ ->
          if Rng.float rng 1.0 < rate then Lose { uniform = true } else Pass);
    }

(* Per-link state keyed by one int, [(src lsl 31) lor dst]. OCaml's
   generic int hash would keep only [(src lsr 1) lxor dst] and [src]'s
   parity of that key, so a multiplicative mix folds every bit into the
   low ones the table indexes by. *)
module Links = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = (k lxor (k lsr 31)) * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
end)

let link_key name src dst =
  if (src lor dst) lsr 31 <> 0 then
    invalid_arg (Printf.sprintf "Netfault.%s: endpoint outside [0, 2^31)" name);
  (src lsl 31) lor dst

let gilbert_elliott ?(loss_good = 0.0) ?(loss_bad = 1.0) ~p_good_to_bad
    ~p_bad_to_good () =
  check_prob "gilbert_elliott" loss_good;
  check_prob "gilbert_elliott" loss_bad;
  check_prob "gilbert_elliott" p_good_to_bad;
  check_prob "gilbert_elliott" p_bad_to_good;
  if p_bad_to_good = 0.0 && p_good_to_bad > 0.0 then
    invalid_arg "Netfault.gilbert_elliott: bad state is absorbing";
  (* one channel per directional link, created lazily with its state
     drawn from the stationary distribution — a chain started in the good
     state would under-sample the bad state on lightly-used links *)
  let pi_bad =
    if p_good_to_bad = 0.0 then 0.0
    else p_good_to_bad /. (p_good_to_bad +. p_bad_to_good)
  in
  let in_bad : bool ref Links.t = Links.create 256 in
  let state rng src dst =
    let key = link_key "gilbert_elliott" src dst in
    match Links.find in_bad key with
    | r -> r
    | exception Not_found ->
        let r = ref (pi_bad > 0.0 && Rng.float rng 1.0 < pi_bad) in
        Links.add in_bad key r;
        r
  in
  {
    desc =
      Printf.sprintf "gilbert-elliott(gb=%.4g bg=%.4g lg=%.4g lb=%.4g)"
        p_good_to_bad p_bad_to_good loss_good loss_bad;
    decide =
      (fun ~rng ~time:_ ~src ~dst ->
        let bad = state rng src dst in
        let p_loss = if !bad then loss_bad else loss_good in
        let lost = p_loss > 0.0 && Rng.float rng 1.0 < p_loss in
        (bad :=
           if !bad then not (Rng.float rng 1.0 < p_bad_to_good)
           else Rng.float rng 1.0 < p_good_to_bad);
        if lost then Lose { uniform = false } else Pass);
  }

let bursty ~avg_loss ~burst =
  if avg_loss < 0.0 || avg_loss >= 1.0 then invalid_arg "Netfault.bursty: avg_loss";
  if burst < 1.0 then invalid_arg "Netfault.bursty: burst < 1";
  if avg_loss = 0.0 then none
  else begin
    let p_bad_to_good = 1.0 /. burst in
    (* stationary fraction of time in the bad (lossy) state must equal
       avg_loss: pi_bad = p_gb / (p_gb + p_bg) *)
    let p_good_to_bad = p_bad_to_good *. avg_loss /. (1.0 -. avg_loss) in
    if p_good_to_bad > 1.0 then invalid_arg "Netfault.bursty: avg_loss * burst too large";
    let t = gilbert_elliott ~p_good_to_bad ~p_bad_to_good () in
    { t with desc = Printf.sprintf "bursty(avg=%.4g burst=%.3g)" avg_loss burst }
  end

let blackhole ?(symmetric = false) ~links () =
  let dead = Links.create 16 in
  List.iter
    (fun (a, b) ->
      Links.replace dead (link_key "blackhole" a b) ();
      if symmetric then Links.replace dead (link_key "blackhole" b a) ())
    links;
  {
    desc =
      Printf.sprintf "blackhole(%d %s links)" (Links.length dead)
        (if symmetric then "symmetric" else "directional");
    decide =
      (fun ~rng:_ ~time:_ ~src ~dst ->
        if Links.mem dead (link_key "blackhole" src dst) then Lose { uniform = false }
        else Pass);
  }

let partition ~group_of =
  {
    desc = "partition";
    decide =
      (fun ~rng:_ ~time:_ ~src ~dst ->
        if group_of src <> group_of dst then Lose { uniform = false } else Pass);
  }

let extra_delay d =
  if d < 0.0 then invalid_arg "Netfault.extra_delay";
  if d = 0.0 then none
  else
    {
      desc = Printf.sprintf "extra-delay(%.4gs)" d;
      decide = (fun ~rng:_ ~time:_ ~src:_ ~dst:_ -> Delay d);
    }

let compose = function
  | [] -> none
  | [ t ] -> t
  | ts ->
      {
        desc = String.concat " + " (List.map (fun t -> t.desc) ts);
        decide =
          (fun ~rng ~time ~src ~dst ->
            let rec go extra = function
              | [] -> if extra > 0.0 then Delay extra else Pass
              | t :: rest -> (
                  match t.decide ~rng ~time ~src ~dst with
                  | Lose _ as v -> v
                  | Pass -> go extra rest
                  | Delay d -> go (extra +. d) rest)
            in
            go 0.0 ts);
      }

let describe t = t.desc
let decide t ~rng ~time ~src ~dst = t.decide ~rng ~time ~src ~dst
