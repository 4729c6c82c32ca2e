module Rng = Repro_util.Rng

type request = { time : float; client : int; url : string }

type t = { reqs : request array; n_urls : int }

let day = 86_400.0
let hour = 3600.0

(* office-hours intensity profile in [0,1] *)
let intensity t =
  let dow = int_of_float (floor (t /. day)) mod 7 in
  let weekend = dow = 5 || dow = 6 in
  let h = Float.rem t day /. hour in
  let daily =
    if h >= 9.0 && h < 12.0 then 1.0
    else if h >= 12.0 && h < 14.0 then 0.7
    else if h >= 14.0 && h < 18.0 then 0.95
    else if h >= 7.0 && h < 9.0 then 0.4
    else if h >= 18.0 && h < 22.0 then 0.3
    else 0.1
  in
  if weekend then 0.15 *. daily else daily

(* Zipf exponent of object popularity: web-like skew *)
let zipf_s = 0.9

let generate ?(n_objects = 10_000) ?(peak_rate = 0.05) ~rng ~n_clients ~duration () =
  if n_clients <= 0 || duration <= 0.0 then invalid_arg "Workload.generate";
  let zipf = Repro_util.Stats.Zipf.create ~n:n_objects ~s:zipf_s in
  let reqs = ref [] in
  let dt = 60.0 in
  let t = ref 0.0 in
  while !t < duration do
    let rate = peak_rate *. intensity !t *. float_of_int n_clients in
    let k = Rng.poisson rng ~mean:(rate *. dt) in
    for _ = 1 to k do
      let time = !t +. Rng.float rng dt in
      if time < duration then begin
        let client = Rng.int rng n_clients in
        let obj = Repro_util.Stats.Zipf.sample zipf rng in
        reqs :=
          { time; client; url = Printf.sprintf "http://site%d/page%d" (obj mod 97) obj }
          :: !reqs
      end
    done;
    t := !t +. dt
  done;
  let arr = Array.of_list !reqs in
  Array.sort (fun a b -> compare a.time b.time) arr;
  { reqs = arr; n_urls = n_objects }

let requests t = t.reqs
let n_requests t = Array.length t.reqs

let distinct_urls t =
  let seen = Hashtbl.create 1024 in
  Array.iter (fun r -> Hashtbl.replace seen r.url ()) t.reqs;
  Hashtbl.length seen
