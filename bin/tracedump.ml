(* Run a small churn scenario with JSONL event tracing on, then read the
   trace file back and print its digest: counts by kind and time span,
   drop attribution, per-lookup path lengths and one lookup's full
   reconstructed hop path, queueing, suspicions and end-to-end retries,
   hardening verdicts and top talkers; then the live engine/net counter
   registry. Doubles as an end-to-end check that traced per-class send
   counts agree with the metrics collector. With --events PATH it runs no
   simulation and prints the digest of a saved trace (see DESIGN.md
   "Structured event tracing" for the schema).

     dune exec bin/tracedump.exe -- --nodes 100 --out trace.jsonl
     dune exec bin/tracedump.exe -- --events trace.jsonl *)

open Cmdliner
module Sim = Harness.Sim
module Obs = Repro_obs
module M = Mspastry.Message
module Collector = Overlay_metrics.Collector
module Trace = Churn.Trace
module Rng = Repro_util.Rng

(* [f] on each event of a JSONL trace, reading it line by line; returns
   the number of unparseable lines *)
let fold_events path f =
  let ic = open_in path in
  let bad = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match Obs.Json.of_string line with
         | Error _ -> incr bad
         | Ok j -> (
             match Obs.Event.of_json j with Ok ev -> f ev | Error _ -> incr bad)
     done
   with End_of_file -> ());
  close_in ic;
  !bad

let bump tbl key =
  match Hashtbl.find_opt tbl key with Some r -> incr r | None -> Hashtbl.add tbl key (ref 1)

let tbl_to_sorted tbl =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare (b : int) a)

let print_path path =
  List.iter
    (fun h ->
      Printf.printf "    t=%10.3f  addr=%-6d stage=%-8s hops=%d%s\n" h.Obs.Hoppath.time
        h.Obs.Hoppath.addr
        (Obs.Event.stage_name h.Obs.Hoppath.stage)
        h.Obs.Hoppath.hops
        (if h.Obs.Hoppath.retx then "  (reroute)" else ""))
    path

let simulate nodes hours seed out loss lookup_rate faults capacity queue_limit =
  (* -- scenario: Gnutella-calibrated churn scaled to ~[nodes] concurrent - *)
  let scale = float_of_int nodes /. 2000.0 in
  let duration = hours *. 3600.0 in
  let churn = Trace.gnutella ~scale ~duration (Rng.create (seed + 1000)) in
  let config =
    {
      Sim.default_config with
      seed;
      loss_rate = loss;
      lookup_rate;
      tracing = Sim.Trace_jsonl out;
      capacity =
        Option.map
          (fun rate -> { Netsim.Net.service_rate = rate; queue_limit })
          capacity;
    }
  in
  let config =
    (* --faults: fail-slow a slice of the overlay mid-run and switch on
       end-to-end retries, so the suspicion / retry events show up *)
    if not faults then config
    else
      {
        config with
        Sim.pastry =
          { config.Sim.pastry with Mspastry.Config.e2e_lookup_retries = 2 };
        fault_schedule =
          [
            Repro_faults.Schedule.fail_slow ~label:"tracedump-slow" ~extra:2.0
              ~time:(duration /. 3.0) ~duration:(duration /. 3.0) 0.15;
          ];
      }
  in
  Printf.printf "scenario: gnutella-calibrated churn, ~%d concurrent nodes, %.1f h\n"
    (Trace.max_concurrent churn) hours;
  Printf.printf "tracing:  %s\n%!" out;
  Sim.run config ~trace:churn

(* the digest of a JSONL trace, folded into running counters as it is
   read (only the lookup-hop events are kept, for the hop paths); returns
   the traced sends per class *)
let digest ~capacity ~sample ~top path =
  let n_events = ref 0 and hop_events = ref [] in
  let t_min = ref infinity and t_max = ref neg_infinity in
  let by_kind = Hashtbl.create 16 in
  let sends_by_class = Hashtbl.create 16 in
  let drops_by = Hashtbl.create 16 in
  let talkers = Hashtbl.create 256 in
  let lost_lookup_seqs = ref [] in
  let suspected_targets = Hashtbl.create 64 in
  let n_suspected = ref 0 and n_unsuspected = ref 0 and max_backoff = ref 0.0 in
  let retry_attempts = Hashtbl.create 8 in
  let n_retries = ref 0 in
  let n_queue = ref 0 and q_sum = ref 0.0 and q_max = ref 0.0 in
  let occ_max = ref 0 in
  let prog_suspects = ref 0 and diversions = ref 0 in
  let poison_rejects = ref 0 and join_defers = ref 0 in
  let bad =
    fold_events path (fun ev ->
      incr n_events;
      t_min := Float.min !t_min ev.Obs.Event.time;
      t_max := Float.max !t_max ev.Obs.Event.time;
      bump by_kind (Obs.Event.kind_name ev);
      match ev.Obs.Event.body with
      | Obs.Event.Send { src; cls; _ } ->
          bump sends_by_class cls;
          bump talkers src
      | Obs.Event.Drop { cls; seq; reason; _ } ->
          bump drops_by (Obs.Event.drop_reason_name reason, cls);
          Option.iter (fun s -> lost_lookup_seqs := s :: !lost_lookup_seqs) seq
      | Obs.Event.Suspected { target; backoff; _ } ->
          incr n_suspected;
          max_backoff := Float.max !max_backoff backoff;
          bump suspected_targets target
      | Obs.Event.Unsuspected _ -> incr n_unsuspected
      | Obs.Event.Lookup_retry { attempt; _ } ->
          incr n_retries;
          bump retry_attempts attempt
      | Obs.Event.Queue { delay; occ; _ } ->
          incr n_queue;
          q_sum := !q_sum +. delay;
          q_max := Float.max !q_max delay;
          occ_max := max !occ_max occ
      | Obs.Event.Progress_suspect _ -> incr prog_suspects
      | Obs.Event.Route_diverted _ -> incr diversions
      | Obs.Event.Poison_rejected _ -> incr poison_rejects
      | Obs.Event.Join_deferred _ -> incr join_defers
      | Obs.Event.Lookup_hop _ -> hop_events := ev :: !hop_events
      | _ -> ())
  in
  let hop_events = List.rev !hop_events in

  Printf.printf "\ntrace: %d events read back%s\n" !n_events
    (if bad > 0 then Printf.sprintf " (%d unparseable lines!)" bad else "");
  if !n_events > 0 then Printf.printf "  time span: %.3f .. %.3f s\n" !t_min !t_max;

  Printf.printf "\nevents by kind:\n";
  List.iter (fun (k, n) -> Printf.printf "  %-16s %d\n" k n) (tbl_to_sorted by_kind);

  Printf.printf "\nsends by class:\n";
  List.iter
    (fun (c, n) -> Printf.printf "  %-20s %d\n" c n)
    (tbl_to_sorted sends_by_class);

  Printf.printf "\ndrop attribution (reason x class):\n";
  let drops = tbl_to_sorted drops_by in
  if drops = [] then Printf.printf "  (no drops)\n"
  else
    List.iter
      (fun ((reason, cls), n) -> Printf.printf "  %-10s %-20s %d\n" reason cls n)
      drops;
  let lost = List.sort_uniq compare !lost_lookup_seqs in
  if lost <> [] then begin
    let shown = List.filteri (fun i _ -> i < 10) lost in
    Printf.printf "  lookup transmissions dropped: seqs %s%s\n"
      (String.concat ", " (List.map string_of_int shown))
      (if List.length lost > 10 then Printf.sprintf " ... (%d total)" (List.length lost)
       else "")
  end;

  (* -- per-lookup hop paths ------------------------------------------ *)
  let paths = Obs.Hoppath.of_events hop_events in
  let n_paths = List.length paths in
  Printf.printf "\nlookup hop paths: %d lookups traced\n" n_paths;
  if n_paths > 0 then begin
    let lengths = List.map Obs.Hoppath.length paths in
    let total = List.fold_left ( + ) 0 lengths in
    let max_len = List.fold_left max 0 lengths in
    Printf.printf "  path length: mean %.2f, max %d\n"
      (float_of_int total /. float_of_int n_paths)
      max_len;
    let hist = Hashtbl.create 16 in
    List.iter (fun l -> bump hist l) lengths;
    let bars = List.sort compare (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) hist []) in
    List.iter (fun (l, n) -> Printf.printf "    %2d nodes: %6d lookups\n" l n) bars;
    let chosen =
      match sample with
      | Some seq -> Obs.Hoppath.find hop_events ~seq |> fun p -> (seq, p)
      | None ->
          (* default sample: a longest path — the most to reconstruct *)
          let best =
            List.fold_left
              (fun acc p ->
                match acc with
                | Some b when Obs.Hoppath.length b >= Obs.Hoppath.length p -> acc
                | _ -> Some p)
              None paths
          in
          let p = Option.get best in
          (p.Obs.Hoppath.seq, p.Obs.Hoppath.path)
    in
    let seq, path = chosen in
    if path = [] then Printf.printf "  lookup %d: no hops traced\n" seq
    else begin
      Printf.printf "  sampled lookup %d (%d nodes):\n" seq (List.length path);
      print_path path
    end
  end;

  (* -- capacity queueing --------------------------------------------- *)
  if capacity || !n_queue > 0 then begin
    Printf.printf "\ncapacity queueing:\n";
    if !n_queue = 0 then Printf.printf "  (no queue events traced)\n"
    else
      Printf.printf
        "  %d enqueues, mean delay %.4fs (max %.4f), peak occupancy %d\n"
        !n_queue
        (!q_sum /. float_of_int !n_queue)
        !q_max !occ_max
  end;

  (* -- failure detector & end-to-end retries ------------------------- *)
  Printf.printf "\nfailure detector / end-to-end retries:\n";
  if !n_suspected = 0 && !n_retries = 0 then
    Printf.printf "  (no suspicions or retries traced)\n"
  else begin
    Printf.printf "  suspicions: %d (%d later cleared by direct contact)\n"
      !n_suspected !n_unsuspected;
    if !n_suspected > 0 then
      Printf.printf "  largest suspicion backoff: %.0fs\n" !max_backoff;
    List.iteri
      (fun i (target, n) ->
        if i < 5 then Printf.printf "    most-suspected addr %-6d %d times\n" target n)
      (tbl_to_sorted suspected_targets);
    Printf.printf "  lookup retries: %d\n" !n_retries;
    List.iter
      (fun (attempt, n) -> Printf.printf "    attempt %d: %d lookups\n" attempt n)
      (List.sort compare
         (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) retry_attempts []))
  end;
  if !prog_suspects > 0 || !diversions > 0 || !poison_rejects > 0 || !join_defers > 0
  then begin
    Printf.printf "\nbyzantine hardening:\n";
    Printf.printf
      "  %d progress suspicions, %d route diversions, %d poison rejections, %d \
       joins deferred\n"
      !prog_suspects !diversions !poison_rejects !join_defers
  end;

  (* -- top talkers --------------------------------------------------- *)
  Printf.printf "\ntop talkers (messages sent):\n";
  List.iteri
    (fun i (addr, n) -> if i < top then Printf.printf "  addr %-6d %d\n" addr n)
    (tbl_to_sorted talkers);
  sends_by_class

(* the live run's counter registry, and the traced per-class sends
   checked against the collector's aggregates *)
let check_run live sends_by_class =
  (* -- runtime counters ---------------------------------------------- *)
  Printf.printf "\nruntime counters:\n";
  List.iter
    (fun (name, v) ->
      match v with
      | Obs.Registry.Int i -> Printf.printf "  %-24s %d\n" name i
      | Obs.Registry.Float f -> Printf.printf "  %-24s %.2f\n" name f)
    (Obs.Registry.dump (Sim.Live.registry live));

  (* -- cross-check traced sends vs collector aggregates -------------- *)
  let summary =
    Collector.summary ~since:0.0 ~until:infinity ~drain:0.0 (Sim.Live.collector live)
  in
  let count_class name =
    match Hashtbl.find_opt sends_by_class name with Some r -> !r | None -> 0
  in
  let traced_control =
    List.fold_left
      (fun acc c -> if M.is_control c then acc + count_class (M.class_name c) else acc)
      0 M.all_classes
  in
  let traced_lookup = count_class (M.class_name M.C_lookup) in
  let ok_control = float_of_int traced_control = summary.Collector.control_msgs in
  let ok_lookup = float_of_int traced_lookup = summary.Collector.lookup_msgs in
  Printf.printf "\ncross-check vs collector (whole run):\n";
  Printf.printf "  control msgs: traced %d, collector %.0f  [%s]\n" traced_control
    summary.Collector.control_msgs
    (if ok_control then "OK" else "MISMATCH");
  Printf.printf "  lookup msgs:  traced %d, collector %.0f  [%s]\n" traced_lookup
    summary.Collector.lookup_msgs
    (if ok_lookup then "OK" else "MISMATCH");
  if ok_control && ok_lookup then `Ok ()
  else `Error (false, "traced counts disagree with the collector")

let run nodes hours seed out loss lookup_rate sample top faults capacity queue_limit
    events =
  let digest = digest ~capacity:(Option.is_some capacity) ~sample ~top in
  match events with
  | Some path -> (
      match digest path with
      | exception Sys_error e -> `Error (false, e)
      | _ -> `Ok ())
  | None ->
      let live = simulate nodes hours seed out loss lookup_rate faults capacity queue_limit in
      check_run live (digest out)

let nodes =
  Arg.(value & opt int 100 & info [ "nodes" ] ~docv:"N" ~doc:"target concurrent nodes")

let hours =
  Arg.(value & opt float 2.5 & info [ "hours" ] ~docv:"H" ~doc:"simulated duration")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed")

let out =
  Arg.(value & opt string "trace.jsonl"
       & info [ "o"; "out" ] ~docv:"PATH" ~doc:"JSONL trace output path")

let loss =
  Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc:"network loss rate")

let lookup_rate =
  Arg.(value & opt float 0.01
       & info [ "rate" ] ~docv:"R" ~doc:"lookups per second per node")

let sample =
  Arg.(value & opt (some int) None
       & info [ "sample" ] ~docv:"SEQ" ~doc:"lookup sequence number to print in full")

let top = Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"top talkers to list")

let faults =
  Arg.(value & flag
       & info [ "faults" ]
           ~doc:
             "inject a fail-slow node fault mid-run and enable end-to-end lookup \
              retries, so suspicion and retry events appear in the trace")

let capacity =
  Arg.(value & opt (some float) None
       & info [ "capacity" ] ~docv:"RATE"
           ~doc:
             "enable the per-node capacity model at RATE msg/s, so queue and \
              congestion-drop events appear in the trace")

let queue_limit =
  Arg.(value & opt int 16
       & info [ "queue-limit" ] ~docv:"N"
           ~doc:"inbound queue depth for --capacity (messages)")

let events =
  Arg.(value & opt (some string) None
       & info [ "events" ] ~docv:"PATH"
           ~doc:"run no simulation: print the digest of the saved JSONL trace at PATH")

let cmd =
  let info =
    Cmd.info "tracedump"
      ~doc:
        "Run a churn scenario with event tracing and summarise the trace, or \
         summarise a saved trace"
  in
  Cmd.v info
    Term.(
      ret
        (const run $ nodes $ hours $ seed $ out $ loss $ lookup_rate $ sample $ top
       $ faults $ capacity $ queue_limit $ events))

let () = exit (Cmd.eval cmd)
