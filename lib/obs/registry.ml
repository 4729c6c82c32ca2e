type value = Int of int | Float of float
type t = { mutable items : (string * (unit -> value)) list (* reversed *) }

let create () = { items = [] }

let register t name read =
  if List.mem_assoc name t.items then
    invalid_arg (Printf.sprintf "Registry.register: duplicate metric %S" name)
  else t.items <- (name, read) :: t.items

let gauge_i t name read = register t name (fun () -> Int (read ()))
let gauge_f t name read = register t name (fun () -> Float (read ()))
let dump t = List.rev_map (fun (name, read) -> (name, read ())) t.items
let find t name = Option.map (fun read -> read ()) (List.assoc_opt name t.items)

let to_json t =
  Json.Obj
    (List.map
       (fun (name, v) ->
         (name, match v with Int n -> Json.Int n | Float f -> Json.Float f))
       (dump t))
