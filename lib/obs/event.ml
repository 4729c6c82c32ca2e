type stage = Leafset | Table | Closest
type drop_reason = Loss | Dead_destination | Faulted | Node_fault | Congested

type body =
  | Send of { src : int; dst : int; cls : string; seq : int option }
  | Recv of { src : int; dst : int; cls : string }
  | Drop of {
      src : int;
      dst : int;
      cls : string;
      seq : int option;
      reason : drop_reason;
    }
  | Node_join of { addr : int }
  | Node_crash of { addr : int }
  | Lookup_hop of { seq : int; addr : int; stage : stage; hops : int; retx : bool }
  | Hop_ack of { addr : int; dst : int; rtt : float }
  | Ack_timeout of { addr : int; dst : int; waited : float; reroutes : int }
  | Probe of { addr : int; target : int; kind : string }
  | Fault of { label : string; action : string }
  | Suspected of { addr : int; target : int; backoff : float }
  | Unsuspected of { addr : int; target : int }
  | Lookup_retry of { seq : int; addr : int; attempt : int }
  | Queue of { addr : int; cls : string; delay : float; occ : int }
  | Progress_suspect of { addr : int; suspect : int; seq : int; hops : int }
  | Route_diverted of { addr : int; suspect : int; seq : int; attempt : int }
  | Poison_rejected of { addr : int; claimed : string; peer : int }
  | Join_deferred of { addr : int; joiner : int }

type t = { time : float; body : body }

let stage_name = function Leafset -> "leafset" | Table -> "table" | Closest -> "closest"

let stage_of_name = function
  | "leafset" -> Some Leafset
  | "table" -> Some Table
  | "closest" -> Some Closest
  | _ -> None

let drop_reason_name = function
  | Loss -> "loss"
  | Dead_destination -> "dead-dst"
  | Faulted -> "fault"
  | Node_fault -> "node-fault"
  | Congested -> "congestion"

let drop_reason_of_name = function
  | "loss" -> Some Loss
  | "dead-dst" -> Some Dead_destination
  | "fault" -> Some Faulted
  | "node-fault" -> Some Node_fault
  | "congestion" -> Some Congested
  | _ -> None

let kind_name t =
  match t.body with
  | Send _ -> "send"
  | Recv _ -> "recv"
  | Drop _ -> "drop"
  | Node_join _ -> "node-join"
  | Node_crash _ -> "node-crash"
  | Lookup_hop _ -> "lookup-hop"
  | Hop_ack _ -> "hop-ack"
  | Ack_timeout _ -> "ack-timeout"
  | Probe _ -> "probe"
  | Fault _ -> "fault"
  | Suspected _ -> "suspected"
  | Unsuspected _ -> "unsuspected"
  | Lookup_retry _ -> "lookup-retry"
  | Queue _ -> "queue"
  | Progress_suspect _ -> "progress-suspect"
  | Route_diverted _ -> "route-diverted"
  | Poison_rejected _ -> "poison-rejected"
  | Join_deferred _ -> "join-deferred"

let seq_field = function None -> [] | Some s -> [ ("seq", Json.Int s) ]

let to_json t =
  let fields =
    match t.body with
    | Send { src; dst; cls; seq } ->
        [ ("src", Json.Int src); ("dst", Json.Int dst); ("cls", Json.String cls) ]
        @ seq_field seq
    | Recv { src; dst; cls } ->
        [ ("src", Json.Int src); ("dst", Json.Int dst); ("cls", Json.String cls) ]
    | Drop { src; dst; cls; seq; reason } ->
        [
          ("src", Json.Int src);
          ("dst", Json.Int dst);
          ("cls", Json.String cls);
          ("reason", Json.String (drop_reason_name reason));
        ]
        @ seq_field seq
    | Node_join { addr } | Node_crash { addr } -> [ ("addr", Json.Int addr) ]
    | Lookup_hop { seq; addr; stage; hops; retx } ->
        [
          ("seq", Json.Int seq);
          ("addr", Json.Int addr);
          ("stage", Json.String (stage_name stage));
          ("hops", Json.Int hops);
          ("retx", Json.Bool retx);
        ]
    | Hop_ack { addr; dst; rtt } ->
        [ ("addr", Json.Int addr); ("dst", Json.Int dst); ("rtt", Json.Float rtt) ]
    | Ack_timeout { addr; dst; waited; reroutes } ->
        [
          ("addr", Json.Int addr);
          ("dst", Json.Int dst);
          ("waited", Json.Float waited);
          ("reroutes", Json.Int reroutes);
        ]
    | Probe { addr; target; kind } ->
        [ ("addr", Json.Int addr); ("target", Json.Int target); ("kind", Json.String kind) ]
    | Fault { label; action } ->
        [ ("label", Json.String label); ("action", Json.String action) ]
    | Suspected { addr; target; backoff } ->
        [
          ("addr", Json.Int addr);
          ("target", Json.Int target);
          ("backoff", Json.Float backoff);
        ]
    | Unsuspected { addr; target } ->
        [ ("addr", Json.Int addr); ("target", Json.Int target) ]
    | Lookup_retry { seq; addr; attempt } ->
        [ ("seq", Json.Int seq); ("addr", Json.Int addr); ("attempt", Json.Int attempt) ]
    | Queue { addr; cls; delay; occ } ->
        [
          ("addr", Json.Int addr);
          ("cls", Json.String cls);
          ("delay", Json.Float delay);
          ("occ", Json.Int occ);
        ]
    | Progress_suspect { addr; suspect; seq; hops } ->
        [
          ("addr", Json.Int addr);
          ("suspect", Json.Int suspect);
          ("seq", Json.Int seq);
          ("hops", Json.Int hops);
        ]
    | Route_diverted { addr; suspect; seq; attempt } ->
        [
          ("addr", Json.Int addr);
          ("suspect", Json.Int suspect);
          ("seq", Json.Int seq);
          ("attempt", Json.Int attempt);
        ]
    | Poison_rejected { addr; claimed; peer } ->
        [
          ("addr", Json.Int addr);
          ("claimed", Json.String claimed);
          ("peer", Json.Int peer);
        ]
    | Join_deferred { addr; joiner } ->
        [ ("addr", Json.Int addr); ("joiner", Json.Int joiner) ]
  in
  Json.Obj
    (("t", Json.Float t.time) :: ("ev", Json.String (kind_name t)) :: fields)

let of_json j =
  let ( let* ) o f = match o with Some v -> f v | None -> Error "missing field" in
  let int k = Option.bind (Json.member k j) Json.to_int in
  let flt k = Option.bind (Json.member k j) Json.to_float in
  let str k = Option.bind (Json.member k j) Json.to_str in
  let bool k = Option.bind (Json.member k j) Json.to_bool in
  let seq_opt = int "seq" in
  let* time = flt "t" in
  let* kind = str "ev" in
  let body =
    match kind with
    | "send" ->
        let* src = int "src" in
        let* dst = int "dst" in
        let* cls = str "cls" in
        Ok (Send { src; dst; cls; seq = seq_opt })
    | "recv" ->
        let* src = int "src" in
        let* dst = int "dst" in
        let* cls = str "cls" in
        Ok (Recv { src; dst; cls })
    | "drop" ->
        let* src = int "src" in
        let* dst = int "dst" in
        let* cls = str "cls" in
        let* reason = Option.bind (str "reason") drop_reason_of_name in
        Ok (Drop { src; dst; cls; seq = seq_opt; reason })
    | "node-join" ->
        let* addr = int "addr" in
        Ok (Node_join { addr })
    | "node-crash" ->
        let* addr = int "addr" in
        Ok (Node_crash { addr })
    | "lookup-hop" ->
        let* seq = int "seq" in
        let* addr = int "addr" in
        let* stage = Option.bind (str "stage") stage_of_name in
        let* hops = int "hops" in
        let* retx = bool "retx" in
        Ok (Lookup_hop { seq; addr; stage; hops; retx })
    | "hop-ack" ->
        let* addr = int "addr" in
        let* dst = int "dst" in
        let* rtt = flt "rtt" in
        Ok (Hop_ack { addr; dst; rtt })
    | "ack-timeout" ->
        let* addr = int "addr" in
        let* dst = int "dst" in
        let* waited = flt "waited" in
        let* reroutes = int "reroutes" in
        Ok (Ack_timeout { addr; dst; waited; reroutes })
    | "probe" ->
        let* addr = int "addr" in
        let* target = int "target" in
        let* kind = str "kind" in
        Ok (Probe { addr; target; kind })
    | "fault" ->
        let* label = str "label" in
        let* action = str "action" in
        Ok (Fault { label; action })
    | "suspected" ->
        let* addr = int "addr" in
        let* target = int "target" in
        let* backoff = flt "backoff" in
        Ok (Suspected { addr; target; backoff })
    | "unsuspected" ->
        let* addr = int "addr" in
        let* target = int "target" in
        Ok (Unsuspected { addr; target })
    | "lookup-retry" ->
        let* seq = int "seq" in
        let* addr = int "addr" in
        let* attempt = int "attempt" in
        Ok (Lookup_retry { seq; addr; attempt })
    | "queue" ->
        let* addr = int "addr" in
        let* cls = str "cls" in
        let* delay = flt "delay" in
        let* occ = int "occ" in
        Ok (Queue { addr; cls; delay; occ })
    | "progress-suspect" ->
        let* addr = int "addr" in
        let* suspect = int "suspect" in
        let* seq = int "seq" in
        let* hops = int "hops" in
        Ok (Progress_suspect { addr; suspect; seq; hops })
    | "route-diverted" ->
        let* addr = int "addr" in
        let* suspect = int "suspect" in
        let* seq = int "seq" in
        let* attempt = int "attempt" in
        Ok (Route_diverted { addr; suspect; seq; attempt })
    | "poison-rejected" ->
        let* addr = int "addr" in
        let* claimed = str "claimed" in
        let* peer = int "peer" in
        Ok (Poison_rejected { addr; claimed; peer })
    | "join-deferred" ->
        let* addr = int "addr" in
        let* joiner = int "joiner" in
        Ok (Join_deferred { addr; joiner })
    | other -> Error (Printf.sprintf "unknown event kind %S" other)
  in
  match body with Ok body -> Ok { time; body } | Error _ as e -> e
