type t = string

let size = 16
let bits = 128

let compare = String.compare
let equal = String.equal
let hash = Hashtbl.hash

let zero = String.make size '\000'
let max_value = String.make size '\255'

let of_string s =
  if String.length s <> size then invalid_arg "Nodeid.of_string: need 16 bytes";
  s

let to_raw t = t

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Nodeid.of_hex: bad hex digit"

let of_hex s =
  if String.length s <> 2 * size then invalid_arg "Nodeid.of_hex: need 32 hex chars";
  String.init size (fun i ->
      Char.chr ((hex_digit s.[2 * i] lsl 4) lor hex_digit s.[(2 * i) + 1]))

let to_hex t =
  String.concat ""
    (List.init size (fun i -> Printf.sprintf "%02x" (Char.code t.[i])))

let short t = String.sub (to_hex t) 0 8

let random rng = Repro_util.Rng.bytes rng size

let of_int i =
  if i < 0 then invalid_arg "Nodeid.of_int: negative";
  let b = Bytes.make size '\000' in
  Bytes.set_int64_be b 8 (Int64.of_int i);
  Bytes.unsafe_to_string b

(* ------------------------------------------------------------------ *)
(* 128-bit arithmetic on the two big-endian 64-bit halves               *)
(* ------------------------------------------------------------------ *)

(* Every value below is an [int64] local that the native compiler keeps
   unboxed: the helpers are inlined and only ints, bools or a fresh
   identifier leave a function, so comparisons allocate nothing. *)

external get64 : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] hi t = if Sys.big_endian then get64 t 0 else bswap64 (get64 t 0)
let[@inline] lo t = if Sys.big_endian then get64 t 8 else bswap64 (get64 t 8)

(* unsigned 64-bit order *)
let[@inline] ult (a : int64) (b : int64) = Int64.add a Int64.min_int < Int64.add b Int64.min_int

(* sign of the unsigned comparison (ah, al) vs (bh, bl) *)
let[@inline] cmp128 (ah : int64) (al : int64) (bh : int64) (bl : int64) =
  if ah <> bh then if ult ah bh then -1 else 1
  else if al = bl then 0
  else if ult al bl then -1
  else 1

(* (ah, al) − (bh, bl) mod 2^128, one half at a time *)
let[@inline] sub_hi ah al bh bl = Int64.sub (Int64.sub ah bh) (if ult al bl then 1L else 0L)
let[@inline] sub_lo al bl = Int64.sub al bl

(* ring distance of a directed difference d: min(d, −d), which is d
   itself when the top bit is clear and −d otherwise *)
let[@inline] ring_hi (dh : int64) dl =
  if dh >= 0L then dh else Int64.sub (Int64.neg dh) (if dl = 0L then 0L else 1L)

let[@inline] ring_lo (dh : int64) dl = if dh >= 0L then dl else Int64.neg dl

let[@inline] of_halves h l =
  let b = Bytes.create size in
  Bytes.set_int64_be b 0 h;
  Bytes.set_int64_be b 8 l;
  Bytes.unsafe_to_string b

let num_digits ~b =
  if b < 1 || b > 8 then invalid_arg "Nodeid.num_digits: b must be in 1..8";
  (bits + b - 1) / b

let digit ~b t i =
  let start = i * b in
  if start < 0 || start >= bits then invalid_arg "Nodeid.digit: index out of range";
  let stop = min (start + b) bits in
  let mask = (1 lsl (stop - start)) - 1 in
  if stop <= 64 then Int64.to_int (Int64.shift_right_logical (hi t) (64 - stop)) land mask
  else if start >= 64 then Int64.to_int (Int64.shift_right_logical (lo t) (128 - stop)) land mask
  else
    (* the digit straddles bit 64: its high part ends [hi], its low part
       starts [lo] *)
    let low_bits = stop - 64 in
    ((Int64.to_int (hi t) lsl low_bits)
    lor Int64.to_int (Int64.shift_right_logical (lo t) (64 - low_bits)))
    land mask

(* leading zeros of a 32-bit value in [1, 2^32) *)
let clz32 x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF0000 = 0 then begin n := 16; x := !x lsl 16 end;
  if !x land 0xFF000000 = 0 then begin n := !n + 8; x := !x lsl 8 end;
  if !x land 0xF0000000 = 0 then begin n := !n + 4; x := !x lsl 4 end;
  if !x land 0xC0000000 = 0 then begin n := !n + 2; x := !x lsl 2 end;
  if !x land 0x80000000 = 0 then !n + 1 else !n

(* leading zeros of a nonzero 64-bit value *)
let[@inline] clz64 x =
  let top = Int64.to_int (Int64.shift_right_logical x 32) in
  if top <> 0 then clz32 top else 32 + clz32 (Int64.to_int x land 0xFFFF_FFFF)

let shared_prefix_length ~b a c =
  let n = num_digits ~b in
  let xh = Int64.logxor (hi a) (hi c) in
  if xh <> 0L then clz64 xh / b
  else
    let xl = Int64.logxor (lo a) (lo c) in
    if xl <> 0L then (64 + clz64 xl) / b else n

let add a c =
  let al = lo a and cl = lo c in
  let l = Int64.add al cl in
  let carry = if ult l al then 1L else 0L in
  of_halves (Int64.add (Int64.add (hi a) (hi c)) carry) l

let sub a c = of_halves (sub_hi (hi a) (lo a) (hi c) (lo c)) (sub_lo (lo a) (lo c))

let cw_dist a c = sub c a

let ring_dist a c =
  let ch = hi c and cl = lo c and ah = hi a and al = lo a in
  let dh = sub_hi ch cl ah al and dl = sub_lo cl al in
  of_halves (ring_hi dh dl) (ring_lo dh dl)

let compare_cw_dist ~from a c =
  let fh = hi from and fl = lo from in
  let ah = hi a and al = lo a and ch = hi c and cl = lo c in
  cmp128 (sub_hi ah al fh fl) (sub_lo al fl) (sub_hi ch cl fh fl) (sub_lo cl fl)

let compare_ccw_dist ~from a c =
  let fh = hi from and fl = lo from in
  let ah = hi a and al = lo a and ch = hi c and cl = lo c in
  cmp128 (sub_hi fh fl ah al) (sub_lo fl al) (sub_hi fh fl ch cl) (sub_lo fl cl)

let in_cw_arc ~from ~til x = compare_cw_dist ~from x til <= 0

let compare_ring_dist ~key a c =
  let kh = hi key and kl = lo key in
  let ah = hi a and al = lo a and ch = hi c and cl = lo c in
  let dah = sub_hi kh kl ah al and dal = sub_lo kl al in
  let dch = sub_hi kh kl ch cl and dcl = sub_lo kl cl in
  cmp128 (ring_hi dah dal) (ring_lo dah dal) (ring_hi dch dcl) (ring_lo dch dcl)

let closer ~key a c =
  let cmp = compare_ring_dist ~key a c in
  cmp < 0 || (cmp = 0 && compare a c < 0)

(* Directed distances stored in flat buffers: two native-order 64-bit
   halves per distance. These take and return no [int64], so they
   allocate nothing even where they are not inlined (a call that passes
   or returns an [int64] boxes it). *)

external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let dist_bytes = 16

let[@inline] store_dist b off ~cw ~from x =
  let fh = hi from and fl = lo from and xh = hi x and xl = lo x in
  if cw then begin
    bytes_set64 b off (sub_hi xh xl fh fl);
    bytes_set64 b (off + 8) (sub_lo xl fl)
  end
  else begin
    bytes_set64 b off (sub_hi fh fl xh xl);
    bytes_set64 b (off + 8) (sub_lo fl xl)
  end

let[@inline] compare_dist a aoff b boff =
  cmp128 (bytes_get64 a aoff) (bytes_get64 a (aoff + 8)) (bytes_get64 b boff)
    (bytes_get64 b (boff + 8))

(* both halves' top bits clear means both distances are below 2^127, so
   their sum fits and is below 2^127 iff its top bit is clear *)
let[@inline] dist_sum_below_half a aoff b boff =
  let ah = bytes_get64 a aoff and bh = bytes_get64 b boff in
  ah >= 0L && bh >= 0L
  &&
  let al = bytes_get64 a (aoff + 8) in
  let l = Int64.add al (bytes_get64 b (boff + 8)) in
  Int64.add (Int64.add ah bh) (if ult l al then 1L else 0L) >= 0L

(* identifiers are uniformly random, so their low half is a uniform
   hash (the table uses only its low bits) *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash t = Int64.to_int (lo t)
end)

let to_float t =
  let acc = ref 0.0 in
  for i = 0 to size - 1 do
    acc := (!acc *. 256.0) +. float_of_int (Char.code t.[i])
  done;
  !acc

let pp fmt t = Format.pp_print_string fmt (short t)
