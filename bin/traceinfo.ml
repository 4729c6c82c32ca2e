(* Inspect the synthetic churn traces: population band, session
   statistics, failure-rate summary. (A JSONL event trace written by the
   simulator is summarised by `tracedump --events PATH`.)

     dune exec bin/traceinfo.exe -- gnutella --scale 0.1 --hours 12 *)

open Cmdliner
module Trace = Churn.Trace
module Rng = Repro_util.Rng

let describe trace window =
  Printf.printf "trace: %s\n" (Trace.name trace);
  Printf.printf "  duration        %.1f h\n" (Trace.duration trace /. 3600.0);
  Printf.printf "  sessions        %d\n" (Trace.n_nodes trace);
  Printf.printf "  max concurrent  %d\n" (Trace.max_concurrent trace);
  Printf.printf "  mean session    %.1f min (completed sessions only)\n"
    (Trace.mean_session trace /. 60.0);
  let pop = Trace.population_series trace ~window in
  if Array.length pop > 2 then begin
    let tail = Array.sub pop 1 (Array.length pop - 2) in
    let values = Array.map snd tail in
    Printf.printf "  population      %.0f mean (min %.0f, max %.0f)\n"
      (Repro_util.Stats.mean values)
      (Array.fold_left Float.min infinity values)
      (Array.fold_left Float.max 0.0 values)
  end;
  let rates = Trace.failure_rate_series trace ~window in
  if Array.length rates > 2 then begin
    let tail = Array.sub rates 1 (Array.length rates - 2) in
    let values = Array.map snd tail in
    Printf.printf "  failure rate    %.2e mean per node per second (max %.2e)\n"
      (Repro_util.Stats.mean values)
      (Array.fold_left Float.max 0.0 values)
  end

let run name scale hours seed =
  let rng = Rng.create seed in
  let duration = Option.map (fun h -> h *. 3600.0) hours in
  let window = 600.0 in
  match name with
  | "gnutella" -> `Ok (describe (Trace.gnutella ~scale ?duration rng) window)
  | "overnet" -> `Ok (describe (Trace.overnet ~scale ?duration rng) window)
  | "microsoft" -> `Ok (describe (Trace.microsoft ~scale ?duration rng) 3600.0)
  | "poisson" ->
      let d = Option.value duration ~default:7200.0 in
      `Ok
        (describe
           (Trace.poisson rng ~n_avg:(int_of_float (1000.0 *. scale)) ~session_mean:3600.0
              ~duration:d)
           window)
  | other -> `Error (false, Printf.sprintf "unknown trace %S" other)

let trace_arg =
  Arg.(value & pos 0 string "gnutella"
       & info [] ~docv:"TRACE" ~doc:"gnutella, overnet, microsoft or poisson")

let scale =
  Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"S" ~doc:"population scale factor")

let hours =
  Arg.(value & opt (some float) None & info [ "hours" ] ~docv:"H" ~doc:"trace duration")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed")

let cmd =
  let info = Cmd.info "traceinfo" ~doc:"Describe a synthetic churn trace" in
  Cmd.v info Term.(ret (const run $ trace_arg $ scale $ hours $ seed))

let () = exit (Cmd.eval cmd)
