let history_size = 16
let remote_size = 32

type t = {
  cfg : Config.t;
  (* failure times, oldest first, at most [history_size]; seeded with the
     join time so a fresh node under-estimates rather than divides by 0 *)
  mutable history : float list;
  mutable n_failures : int;
  remotes : float array;
  mutable n_remotes : int; (* total observed; ring index = n mod size *)
  sorted : float array; (* [current_trt]'s work array: the remotes plus the local value *)
}

let create cfg ~now =
  {
    cfg;
    history = [ now ];
    n_failures = 0;
    remotes = Array.make remote_size 0.0;
    n_remotes = 0;
    sorted = Array.make (remote_size + 1) 0.0;
  }

let record_failure t ~now =
  t.n_failures <- t.n_failures + 1;
  let h = t.history @ [ now ] in
  let len = List.length h in
  t.history <- (if len > history_size then List.tl h else h)

let observe_remote t v =
  if v > 0.0 && Float.is_finite v then begin
    t.remotes.(t.n_remotes mod remote_size) <- v;
    t.n_remotes <- t.n_remotes + 1
  end

let failures_seen t = t.n_failures

let estimate_mu t ~m ~now =
  if m <= 0 || t.n_failures = 0 then 0.0
  else begin
    let first = List.hd t.history in
    let full = List.length t.history > history_size - 1 && t.n_failures >= history_size in
    let k, span =
      if full then
        (* history holds the last K failure times *)
        let last = List.fold_left (fun _ x -> x) first t.history in
        (float_of_int (List.length t.history - 1), last -. first)
      else
        (* fewer than K failures: pretend one happens right now *)
        (float_of_int t.n_failures, now -. first)
    in
    if span <= 0.0 then 0.0 else k /. (float_of_int m *. span)
  end

let id_space = 2.0 ** 128.0

let estimate_n leafset =
  let m = Pastry.Leafset.size leafset in
  if m = 0 then 1.0
  else
    match (Pastry.Leafset.leftmost leafset, Pastry.Leafset.rightmost leafset) with
    | Some lm, Some rm ->
        let span =
          Pastry.Nodeid.to_float (Pastry.Nodeid.cw_dist lm.Pastry.Peer.id rm.Pastry.Peer.id)
        in
        if span <= 0.0 then float_of_int (m + 1)
        else Float.max (float_of_int (m + 1)) (float_of_int (m + 1) *. id_space /. span)
    | _ -> float_of_int (m + 1)

let pf ~t_detect ~mu =
  if mu <= 0.0 || t_detect <= 0.0 then 0.0
  else begin
    let x = t_detect *. mu in
    if x < 1e-8 then x /. 2.0 else 1.0 -. ((1.0 -. exp (-.x)) /. x)
  end

let expected_hops ~b ~n =
  let base = float_of_int (1 lsl b) in
  let n = Float.max n 2.0 in
  let h = (base -. 1.0) /. base *. (log n /. log base) in
  Float.max 1.0 h

(* the raw loss rate split at Trt: [h] and [p_last] depend only on N and
   µ, so the solver computes them once and bisects over [loss_at] *)
let retries = float_of_int (Config.max_probe_retries + 1)

let hops_and_p_last (cfg : Config.t) ~n ~mu =
  let h = expected_hops ~b:cfg.b ~n in
  (h, pf ~t_detect:(Config.t_ls +. (retries *. Config.t_out)) ~mu)

let loss_at ~h ~p_last ~mu trt =
  let p_rt = pf ~t_detect:(trt +. (retries *. Config.t_out)) ~mu in
  1.0 -. ((1.0 -. p_last) *. ((1.0 -. p_rt) ** (h -. 1.0)))

let raw_loss_rate cfg ~trt ~n ~mu =
  let h, p_last = hops_and_p_last cfg ~n ~mu in
  loss_at ~h ~p_last ~mu trt

let trt_floor = retries *. Config.t_out

let solve_trt (cfg : Config.t) ~n ~mu =
  let h, p_last = hops_and_p_last cfg ~n ~mu in
  let lo = trt_floor and hi = Config.t_rt_max in
  if loss_at ~h ~p_last ~mu lo >= cfg.lr_target then lo
  else if loss_at ~h ~p_last ~mu hi <= cfg.lr_target then hi
  else begin
    let lo = ref lo and hi = ref hi in
    for _ = 1 to 60 do
      let mid = (!lo +. !hi) /. 2.0 in
      if loss_at ~h ~p_last ~mu mid > cfg.lr_target then hi := mid else lo := mid
    done;
    !lo
  end

let local_trt t ~leafset ~m ~now =
  let mu = estimate_mu t ~m ~now in
  let n = estimate_n leafset in
  solve_trt t.cfg ~n ~mu

(* [Repro_util.Stats.median] of [a.(0 .. len-1)], sorted in place by
   insertion on the unboxed floats: the same order as [Array.sort
   compare] for the finite values the tuner holds, and the same
   interpolation arithmetic *)
let median_in_place (a : float array) len =
  for i = 1 to len - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done;
  let rank = 0.5 *. float_of_int (len - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  let frac = rank -. floor rank in
  (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)

let current_trt t ~local =
  let k = min t.n_remotes remote_size in
  Array.blit t.remotes 0 t.sorted 0 k;
  t.sorted.(k) <- local;
  let med = median_in_place t.sorted (k + 1) in
  Float.max trt_floor (Float.min Config.t_rt_max med)
