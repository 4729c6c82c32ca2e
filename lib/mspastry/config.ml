let t_ls = 30.0
let t_out = 3.0
let max_probe_retries = 2
let t_rt_max = 3600.0
let tuning_refresh_period = 30.0
let rt_maintenance_period = 1200.0
let distance_probe_count = 3
let distance_probe_spacing = 1.0
let max_concurrent_distance_probes = 8
let hop_rto_initial = 0.5
let hop_rto_min = 0.02
let hop_rto_max = 3.0
let exclusion_period = 30.0
let join_retry_period = 20.0
let max_join_retries = 3
let repair_delay = 1.0
let suspicion_backoff = 30.0
let suspicion_backoff_max = 600.0
let e2e_timeout_min = 1.0
let overload_threshold = 16
let join_rate_window = 60.0

type t = {
  b : int;
  l : int;
  probe_volley : int;
  per_hop_acks : bool;
  active_probing : bool;
  lr_target : float;
  exploit_structure : bool;
  max_hop_reroutes : int;
  root_retries : int;
  e2e_lookup_retries : int;
  backpressure : bool;
  verify_gossip : bool;
  progress_check : bool;
  join_rate_limit : int;
}

let default =
  {
    b = 4;
    l = 32;
    probe_volley = 1;
    per_hop_acks = true;
    active_probing = true;
    lr_target = 0.05;
    exploit_structure = true;
    max_hop_reroutes = 20;
    root_retries = 4;
    e2e_lookup_retries = 0;
    backpressure = false;
    verify_gossip = false;
    progress_check = false;
    join_rate_limit = 0;
  }

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.b < 1 || t.b > 8 then err "b must be in 1..8 (got %d)" t.b
  else if t.l < 2 || t.l mod 2 <> 0 then err "l must be even and >= 2 (got %d)" t.l
  else if t.probe_volley < 1 then err "probe_volley must be >= 1"
  else if t.lr_target <= 0.0 || t.lr_target >= 1.0 then
    err "lr_target must be in (0,1)"
  else if t.max_hop_reroutes < 0 then err "max_hop_reroutes must be >= 0"
  else if t.root_retries < 0 then err "root_retries must be >= 0"
  else if t.e2e_lookup_retries < 0 then err "e2e_lookup_retries must be >= 0"
  else if t.join_rate_limit < 0 then err "join_rate_limit must be >= 0"
  else Ok ()
