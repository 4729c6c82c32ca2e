(* Pretty-print, diff and gate on the JSON artefacts the simulator
   writes: run manifests (DESIGN.md §9, written by Sim on close or via
   `experiments --manifest`) and bench reports (`bench/main.exe micro
   --json`).

     statsdump run.json                pretty-print one document
     statsdump old.json new.json       diff: numeric leaves side by side
     statsdump --bench OLD NEW         compare micro ns/op maps (medians)
                                       and exit 1 on any regression beyond
                                       --threshold or any baseline kernel
                                       missing from NEW (the CI perf gate);
                                       prints NEW's min and max estimates *)

open Cmdliner
module Json = Repro_obs.Json

let read_json path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Json.of_string s with
    | Ok j -> Ok j
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
  with Sys_error e -> Error e

(* Flatten to dotted-path leaves — the shared basis for printing and
   diffing. List elements become [path[i]]. *)
let flatten j =
  let out = ref [] in
  let rec go path = function
    | Json.Obj kvs ->
        List.iter
          (fun (k, v) -> go (if path = "" then k else path ^ "." ^ k) v)
          kvs
    | Json.List items ->
        List.iteri (fun i v -> go (Printf.sprintf "%s[%d]" path i) v) items
    | leaf -> out := (path, leaf) :: !out
  in
  go "" j;
  List.rev !out

let leaf_to_string = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Int i -> string_of_int i
  | Json.Float f -> Printf.sprintf "%.6g" f
  | Json.String s -> s
  | Json.List _ | Json.Obj _ -> "<nested>"

let print_one j =
  List.iter
    (fun (path, v) -> Printf.printf "%-52s %s\n" path (leaf_to_string v))
    (flatten j)

let diff old_j new_j =
  let old_leaves = flatten old_j and new_leaves = flatten new_j in
  let changed = ref 0 in
  Printf.printf "%-52s %14s %14s %12s\n" "path" "old" "new" "delta";
  List.iter
    (fun (path, nv) ->
      match List.assoc_opt path old_leaves with
      | None ->
          incr changed;
          Printf.printf "%-52s %14s %14s %12s\n" path "(absent)"
            (leaf_to_string nv) ""
      | Some ov when ov = nv -> ()
      | Some ov -> (
          incr changed;
          match (Json.to_float ov, Json.to_float nv) with
          | Some o, Some n ->
              let pct = if o = 0.0 then nan else (n -. o) /. o *. 100.0 in
              Printf.printf "%-52s %14.6g %14.6g %+11.1f%%\n" path o n pct
          | _ ->
              Printf.printf "%-52s %14s %14s %12s\n" path (leaf_to_string ov)
                (leaf_to_string nv) ""))
    new_leaves;
  List.iter
    (fun (path, ov) ->
      if List.assoc_opt path new_leaves = None then begin
        incr changed;
        Printf.printf "%-52s %14s %14s %12s\n" path (leaf_to_string ov)
          "(absent)" ""
      end)
    old_leaves;
  if !changed = 0 then Printf.printf "(identical)\n"

(* --bench: compare the micro_ns_per_op maps (each kernel's median
   estimate) of two bench reports, printing the candidate's min and max
   estimates beside it when its report has a micro_spread map. Fails
   (exit 1) when any kernel's median slows down by more than [threshold]
   or is missing from the candidate — a renamed or deleted kernel must
   not drop out of the gate unnoticed (regenerate the baseline instead). *)
let bench_gate old_j new_j threshold =
  let micro j name =
    match Json.member "micro_ns_per_op" j with
    | Some (Json.Obj kvs) -> Ok kvs
    | _ -> Error (Printf.sprintf "%s: no micro_ns_per_op map" name)
  in
  let spread =
    match Json.member "micro_spread" new_j with Some (Json.Obj kvs) -> kvs | _ -> []
  in
  let range name =
    let bound k j = Option.bind (Json.member k j) Json.to_float in
    match List.assoc_opt name spread with
    | Some j -> (
        match (bound "min" j, bound "max" j) with
        | Some lo, Some hi -> Printf.sprintf "  [%.1f, %.1f]" lo hi
        | _ -> "")
    | None -> ""
  in
  match (micro old_j "baseline", micro new_j "candidate") with
  | Error e, _ | _, Error e -> `Error (false, e)
  | Ok old_map, Ok new_map ->
      let regressions = ref [] and missing = ref 0 in
      Printf.printf "%-40s %12s %12s %9s%s\n" "kernel" "base ns/op" "new ns/op" "change"
        (if spread = [] then "" else "  new [min, max]");
      List.iter
        (fun (name, ov) ->
          match (Json.to_float ov, Option.bind (List.assoc_opt name new_map) Json.to_float) with
          | Some o, Some n when o > 0.0 ->
              let rel = (n -. o) /. o in
              let flag =
                if rel > threshold then begin
                  regressions := (name, rel) :: !regressions;
                  "  REGRESSION"
                end
                else ""
              in
              Printf.printf "%-40s %12.1f %12.1f %+8.1f%%%s%s\n" name o n
                (rel *. 100.0) (range name) flag
          | Some o, None ->
              incr missing;
              Printf.printf "%-40s %12.1f %12s %9s  MISSING\n" name o "-" ""
          | _ -> ())
        old_map;
      if !regressions = [] && !missing = 0 then begin
        Printf.printf "bench gate: ok (threshold %+.0f%%)\n"
          (threshold *. 100.0);
        `Ok ()
      end
      else begin
        if !regressions <> [] then
          Printf.printf "bench gate: %d kernel(s) regressed beyond %+.0f%%\n"
            (List.length !regressions)
            (threshold *. 100.0);
        if !missing > 0 then
          Printf.printf "bench gate: %d baseline kernel(s) missing from the candidate\n"
            !missing;
        exit 1
      end

let run bench threshold files =
  let with_json path k =
    match read_json path with Error e -> `Error (false, e) | Ok j -> k j
  in
  match (bench, files) with
  | false, [ f ] -> with_json f (fun j -> `Ok (print_one j))
  | false, [ a; b ] ->
      with_json a (fun ja -> with_json b (fun jb -> `Ok (diff ja jb)))
  | true, [ a; b ] ->
      with_json a (fun ja -> with_json b (fun jb -> bench_gate ja jb threshold))
  | _ ->
      `Error
        (false, "expected FILE (print), FILE FILE (diff) or --bench OLD NEW")

let bench =
  Arg.(value & flag
       & info [ "bench" ]
           ~doc:
             "compare the $(b,micro_ns_per_op) maps of two bench reports and \
              exit 1 on any kernel regression beyond $(b,--threshold) or any \
              baseline kernel missing from the candidate")

let threshold =
  Arg.(value & opt float 0.25
       & info [ "threshold" ] ~docv:"FRAC"
           ~doc:"allowed fractional slowdown per kernel for --bench (0.25 = 25%)")

let files = Arg.(value & pos_all string [] & info [] ~docv:"FILE")

let cmd =
  let info =
    Cmd.info "statsdump" ~doc:"Pretty-print, diff and gate on run manifests and bench reports"
  in
  Cmd.v info Term.(ret (const run $ bench $ threshold $ files))

let () = exit (Cmd.eval cmd)
