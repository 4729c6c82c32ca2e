module Ring = struct
  type 'a t = {
    buf : 'a option array;
    mutable start : int; (* index of oldest element *)
    mutable len : int;
    mutable evicted : int;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
    { buf = Array.make capacity None; start = 0; len = 0; evicted = 0 }

  let capacity t = Array.length t.buf
  let length t = t.len
  let evicted t = t.evicted

  let push t x =
    let cap = capacity t in
    if t.len = cap then begin
      (* overwrite the oldest slot *)
      t.buf.(t.start) <- Some x;
      t.start <- (t.start + 1) mod cap;
      t.evicted <- t.evicted + 1
    end
    else begin
      t.buf.((t.start + t.len) mod cap) <- Some x;
      t.len <- t.len + 1
    end

  let to_list t =
    List.init t.len (fun i ->
        match t.buf.((t.start + i) mod capacity t) with
        | Some x -> x
        | None -> assert false)

  let clear t =
    Array.fill t.buf 0 (Array.length t.buf) None;
    t.start <- 0;
    t.len <- 0
end

type t = Memory of Event.t Ring.t | Jsonl of out_channel

let memory ~capacity = Memory (Ring.create ~capacity)
let jsonl_file path = Jsonl (open_out path)

let emit t ev =
  match t with
  | Memory r -> Ring.push r ev
  | Jsonl oc ->
      output_string oc (Json.to_string (Event.to_json ev));
      output_char oc '\n'

let close = function Jsonl oc -> close_out oc | Memory _ -> ()
