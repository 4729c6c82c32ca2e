type t = Sink.t option

let disabled = None
let create sink = Some sink
let enabled = function Some _ -> true | None -> false

let ph_trace = Profile.phase "obs.trace"

let emit t ev =
  match t with
  | Some s ->
      if !Profile.on then begin
        Profile.enter ph_trace;
        Sink.emit s ev;
        Profile.leave ph_trace
      end
      else Sink.emit s ev
  | None -> ()

let events = function
  | Some (Sink.Memory r) -> Sink.Ring.to_list r
  | Some (Sink.Jsonl _) | None -> []

let close t = Option.iter Sink.close t
