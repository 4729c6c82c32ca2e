(* CLI for regenerating the paper's tables and figures.

   Usage: experiments [EXPERIMENT] [--size quick|medium|full] [--seed N]
   [--profile] [--manifest PATH]; `experiments --help` lists the
   experiment names (Experiments.runners, plus all). *)

open Cmdliner
module E = Repro_experiments.Experiments

let runners = E.runners @ [ ("all", E.all) ]

let experiment =
  let names = List.map fst runners in
  let doc = "Experiment to run: " ^ String.concat ", " names in
  Arg.(
    value
    & pos 0 (enum (List.map (fun n -> (n, n)) names)) "all"
    & info [] ~docv:"EXPERIMENT" ~doc)

let size =
  let sizes = Arg.enum [ ("quick", E.Quick); ("medium", E.Medium); ("full", E.Full) ] in
  Arg.(value & opt sizes E.Quick & info [ "size" ] ~docv:"SIZE" ~doc:"quick, medium or full")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"master RNG seed")

let profile =
  let doc =
    "Enable the wall-clock profiler and print its phase breakdown after \
     the experiment (see DESIGN.md \u{00A7}9)."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let manifest =
  let doc =
    "Write a run manifest (JSON) to $(docv) when each run closes. \
     Experiments that execute several runs overwrite it, so the file \
     holds the last run's manifest. Inspect with $(b,statsdump)."
  in
  Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"PATH" ~doc)

let run name size seed profile manifest =
  E.set_manifest_out manifest;
  if profile then begin
    Repro_obs.Profile.reset ();
    Repro_obs.Profile.set_enabled true
  end;
  (List.assoc name runners) size ~seed;
  if profile then begin
    Repro_obs.Profile.set_enabled false;
    Repro_obs.Profile.pp_report Format.std_formatter (Repro_obs.Profile.report ());
    Format.pp_print_flush Format.std_formatter ()
  end

let cmd =
  let doc = "Regenerate the MSPastry paper's tables and figures" in
  let info = Cmd.info "experiments" ~doc in
  Cmd.v info Term.(const run $ experiment $ size $ seed $ profile $ manifest)

let () = exit (Cmd.eval cmd)
