module Live = Harness.Sim.Live
module Sim = Harness.Sim

type result = {
  total_traffic : (float * float) array;
  cache_stats : Cache.stats;
  hit_rate : float;
  n_nodes : int;
  duration : float;
}

let run ?(n_nodes = 52) ?(duration = 6.0 *. 86_400.0) ?(window = 3600.0) ~seed () =
  let config =
    {
      Sim.default_config with
      seed;
      topology = Sim.Corpnet;
      lookup_rate = 0.0 (* Squirrel drives all lookups *);
      window;
      warmup = 1800.0;
    }
  in
  let live = Live.create config ~n_endpoints:n_nodes in
  let cache = Cache.create ~live () in
  (* machines come up staggered over the first 20 minutes *)
  for i = 0 to n_nodes - 1 do
    Live.spawn_at live ~time:(float_of_int i *. (1200.0 /. float_of_int n_nodes)) ()
  done;
  Live.run_until live 1800.0;
  let clients = Array.of_list (Live.active_nodes live) in
  let n_clients = Array.length clients in
  let rng = Repro_util.Rng.create (seed + 1) in
  let wl = Workload.generate ~rng ~n_clients ~duration () in
  Array.iter
    (fun (r : Workload.request) ->
      ignore
        (Simkit.Engine.schedule_at (Live.engine live) ~time:(1800.0 +. r.Workload.time)
           (fun () ->
             let client = clients.(r.Workload.client mod n_clients) in
             if Mspastry.Node.is_alive client && Mspastry.Node.is_active client then
               Cache.request cache ~client ~url:r.Workload.url)))
    (Workload.requests wl);
  Live.run_until live (1800.0 +. duration +. 60.0);
  Overlay_metrics.Collector.flush (Live.collector live) ~time:(1800.0 +. duration);
  let overlay = Overlay_metrics.Collector.control_series (Live.collector live) in
  let lookup_series =
    Overlay_metrics.Collector.control_series_by_class (Live.collector live)
      Mspastry.Message.C_lookup
  in
  let squirrel = Cache.traffic_series cache in
  (* total messages/s/node: the three series' values, summed per window
     (each reports a window at its midpoint) *)
  let totals = Repro_util.Series.create ~window in
  List.iter
    (Array.iter (fun (mid, v) -> Repro_util.Series.add totals ~time:mid v))
    [ overlay; lookup_series; squirrel ];
  let total_traffic = Repro_util.Series.sums totals in
  let s = Cache.stats cache in
  {
    total_traffic;
    cache_stats = s;
    hit_rate =
      (if s.Cache.responses = 0 then 0.0
       else float_of_int s.Cache.hits /. float_of_int s.Cache.responses);
    n_nodes = n_clients;
    duration;
  }
