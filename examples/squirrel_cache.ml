(* Squirrel: a co-operative web cache as an MSPastry application.

     dune exec examples/squirrel_cache.exe

   Twenty desktop machines pool their browser caches: each URL's key
   (hash of the URL) has a home node — the key's root in the overlay —
   which stores the object. Requests are overlay lookups; a miss costs an
   origin-server fetch, a hit is served from the home node directly. This
   is the application the paper used to validate its simulator (Fig 8). *)

module Sim = Harness.Sim
module Live = Sim.Live
module Cache = Squirrel.Cache

let () =
  let config =
    {
      Sim.default_config with
      topology = Sim.Corpnet;
      lookup_rate = 0.0 (* Squirrel drives all the traffic *);
      warmup = 0.0;
      seed = 11;
    }
  in
  let live = Live.create config ~n_endpoints:20 in
  let cache = Cache.create ~live () in

  for i = 0 to 19 do
    Live.spawn_at live ~time:(float_of_int i *. 5.0) ()
  done;
  Live.run_until live 200.0;
  let clients = Array.of_list (Live.active_nodes live) in
  Printf.printf "corporate overlay up: %d proxies\n" (Array.length clients);

  (* an hour of browsing: Zipf-popular pages, shared across users *)
  let rng = Repro_util.Rng.create 3 in
  let wl =
    Squirrel.Workload.generate ~rng ~n_clients:(Array.length clients) ~duration:3600.0
      ~peak_rate:0.1 ~n_objects:500 ()
  in
  Printf.printf "replaying %d web requests over one hour...\n%!"
    (Squirrel.Workload.n_requests wl);
  Array.iter
    (fun (req : Squirrel.Workload.request) ->
      ignore
        (Simkit.Engine.schedule_at (Live.engine live) ~time:(200.0 +. req.Squirrel.Workload.time)
           (fun () ->
             let c = clients.(req.Squirrel.Workload.client mod Array.length clients) in
             if Mspastry.Node.is_alive c then
               Cache.request cache ~client:c ~url:req.Squirrel.Workload.url)))
    (Squirrel.Workload.requests wl);
  Live.run_until live 3900.0;

  let s = Cache.stats cache in
  let hit_rate =
    if s.Cache.responses = 0 then 0.0
    else float_of_int s.Cache.hits /. float_of_int s.Cache.responses
  in
  Printf.printf "\nresults:\n";
  Printf.printf "  requests        %d\n" s.Cache.requests;
  Printf.printf "  hits            %d (%.0f%% hit rate)\n" s.Cache.hits (100.0 *. hit_rate);
  Printf.printf "  origin fetches  %d\n" s.Cache.misses;
  Printf.printf "  failed          %d\n" s.Cache.failed;
  Printf.printf "  mean latency    %.0f ms\n" (s.Cache.mean_latency *. 1000.0);
  Printf.printf "  objects cached  %d across the fleet\n" s.Cache.cached_objects
