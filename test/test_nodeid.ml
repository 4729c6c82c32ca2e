module Nodeid = Pastry.Nodeid
module Rng = Repro_util.Rng

let id_of_hex = Nodeid.of_hex

let zeros = String.make 32 '0'

let hex_with prefix =
  prefix ^ String.sub zeros 0 (32 - String.length prefix)

let test_hex_roundtrip () =
  let h = "0123456789abcdef0123456789abcdef" in
  Alcotest.(check string) "roundtrip" h (Nodeid.to_hex (id_of_hex h))

let test_of_hex_validation () =
  Alcotest.check_raises "short" (Invalid_argument "Nodeid.of_hex: need 32 hex chars")
    (fun () -> ignore (id_of_hex "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Nodeid.of_hex: bad hex digit")
    (fun () -> ignore (id_of_hex (hex_with "zz")))

let test_compare_numeric () =
  let a = id_of_hex (hex_with "01") and b = id_of_hex (hex_with "02") in
  Alcotest.(check bool) "a < b" true (Nodeid.compare a b < 0);
  Alcotest.(check bool) "equal" true (Nodeid.equal a a);
  Alcotest.(check bool) "zero min" true (Nodeid.compare Nodeid.zero a < 0);
  Alcotest.(check bool) "max max" true (Nodeid.compare a Nodeid.max_value < 0)

let test_of_int () =
  let five = Nodeid.of_int 5 in
  Alcotest.(check string) "low bytes" "00000000000000000000000000000005"
    (Nodeid.to_hex five);
  Alcotest.(check bool) "zero" true (Nodeid.equal (Nodeid.of_int 0) Nodeid.zero)

let test_num_digits () =
  Alcotest.(check int) "b=4" 32 (Nodeid.num_digits ~b:4);
  Alcotest.(check int) "b=1" 128 (Nodeid.num_digits ~b:1);
  Alcotest.(check int) "b=3 ceil" 43 (Nodeid.num_digits ~b:3);
  Alcotest.(check int) "b=5 ceil" 26 (Nodeid.num_digits ~b:5)

let test_digit_b4_matches_hex () =
  let h = "0123456789abcdef0123456789abcdef" in
  let id = id_of_hex h in
  String.iteri
    (fun i c ->
      let expected = int_of_string (Printf.sprintf "0x%c" c) in
      Alcotest.(check int) (Printf.sprintf "digit %d" i) expected (Nodeid.digit ~b:4 id i))
    h

let test_digit_b1_is_bits () =
  let id = id_of_hex (hex_with "80") in
  Alcotest.(check int) "first bit" 1 (Nodeid.digit ~b:1 id 0);
  Alcotest.(check int) "second bit" 0 (Nodeid.digit ~b:1 id 1)

let test_shared_prefix () =
  let a = id_of_hex (hex_with "abcd") and b = id_of_hex (hex_with "abce") in
  Alcotest.(check int) "b=4: 3 digits" 3 (Nodeid.shared_prefix_length ~b:4 a b);
  Alcotest.(check int) "self" 32 (Nodeid.shared_prefix_length ~b:4 a a)

let test_add_sub () =
  let one = Nodeid.of_int 1 in
  Alcotest.(check bool) "max + 1 = 0" true
    (Nodeid.equal (Nodeid.add Nodeid.max_value one) Nodeid.zero);
  Alcotest.(check bool) "0 - 1 = max" true
    (Nodeid.equal (Nodeid.sub Nodeid.zero one) Nodeid.max_value)

let test_cw_dist () =
  let a = Nodeid.of_int 10 and b = Nodeid.of_int 13 in
  Alcotest.(check bool) "cw a b = 3" true
    (Nodeid.equal (Nodeid.cw_dist a b) (Nodeid.of_int 3));
  (* the other way wraps all the way round *)
  Alcotest.(check bool) "cw b a large" true
    (Nodeid.compare (Nodeid.cw_dist b a) (Nodeid.of_int 1000000) > 0)

let test_ring_dist_symmetric () =
  let a = Nodeid.of_int 10 and b = Nodeid.of_int 13 in
  Alcotest.(check bool) "symmetric" true
    (Nodeid.equal (Nodeid.ring_dist a b) (Nodeid.ring_dist b a));
  Alcotest.(check bool) "is 3" true
    (Nodeid.equal (Nodeid.ring_dist a b) (Nodeid.of_int 3))

let test_in_cw_arc () =
  let a = Nodeid.of_int 10 and b = Nodeid.of_int 20 in
  Alcotest.(check bool) "inside" true (Nodeid.in_cw_arc ~from:a ~til:b (Nodeid.of_int 15));
  Alcotest.(check bool) "endpoint til" true (Nodeid.in_cw_arc ~from:a ~til:b b);
  Alcotest.(check bool) "endpoint from" true (Nodeid.in_cw_arc ~from:a ~til:b a);
  Alcotest.(check bool) "outside" false (Nodeid.in_cw_arc ~from:a ~til:b (Nodeid.of_int 25));
  (* arc that wraps zero *)
  Alcotest.(check bool) "wrap inside" true
    (Nodeid.in_cw_arc ~from:(Nodeid.sub Nodeid.zero (Nodeid.of_int 5)) ~til:(Nodeid.of_int 5)
       (Nodeid.of_int 1))

let test_closer_tiebreak () =
  (* two nodes exactly equidistant: the numerically smaller id wins *)
  let key = Nodeid.of_int 10 in
  let a = Nodeid.of_int 8 and b = Nodeid.of_int 12 in
  Alcotest.(check bool) "a beats b" true (Nodeid.closer ~key a b);
  Alcotest.(check bool) "b loses to a" false (Nodeid.closer ~key b a);
  Alcotest.(check bool) "irreflexive" false (Nodeid.closer ~key a a)

let test_to_float () =
  Alcotest.(check (float 0.0)) "zero" 0.0 (Nodeid.to_float Nodeid.zero);
  Alcotest.(check (float 0.0)) "small" 255.0 (Nodeid.to_float (Nodeid.of_int 255));
  Alcotest.(check bool) "max near 2^128" true
    (Nodeid.to_float Nodeid.max_value > 3.4e38)

let random_id =
  QCheck.make
    ~print:(fun id -> Nodeid.to_hex id)
    (QCheck.Gen.map
       (fun seed -> Nodeid.random (Rng.create seed))
       QCheck.Gen.int)

let qcheck_add_sub_inverse =
  QCheck.Test.make ~name:"sub (add a b) b = a" ~count:300 (QCheck.pair random_id random_id)
    (fun (a, b) -> Nodeid.equal (Nodeid.sub (Nodeid.add a b) b) a)

let qcheck_cw_antisym =
  QCheck.Test.make ~name:"cw a b + cw b a = 0 (mod 2^128)" ~count:300
    (QCheck.pair random_id random_id) (fun (a, b) ->
      Nodeid.equal (Nodeid.add (Nodeid.cw_dist a b) (Nodeid.cw_dist b a)) Nodeid.zero)

let qcheck_prefix_symmetric =
  QCheck.Test.make ~name:"shared prefix symmetric" ~count:300
    (QCheck.pair random_id random_id) (fun (a, b) ->
      Nodeid.shared_prefix_length ~b:4 a b = Nodeid.shared_prefix_length ~b:4 b a)

let qcheck_digit_range =
  QCheck.Test.make ~name:"digits within base" ~count:200 random_id (fun id ->
      let ok = ref true in
      List.iter
        (fun b ->
          for i = 0 to Nodeid.num_digits ~b - 1 do
            let d = Nodeid.digit ~b id i in
            if d < 0 || d >= 1 lsl b then ok := false
          done)
        [ 1; 2; 3; 4; 5; 8 ];
      !ok)

let qcheck_closer_total =
  QCheck.Test.make ~name:"closer is a strict total order between distinct ids" ~count:300
    (QCheck.triple random_id random_id random_id) (fun (key, a, b) ->
      if Nodeid.equal a b then not (Nodeid.closer ~key a b)
      else Nodeid.closer ~key a b <> Nodeid.closer ~key b a)

let qcheck_to_float_monotone =
  QCheck.Test.make ~name:"to_float order-consistent" ~count:300
    (QCheck.pair random_id random_id) (fun (a, b) ->
      let c = Nodeid.compare a b in
      let fa = Nodeid.to_float a and fb = Nodeid.to_float b in
      if c < 0 then fa <= fb else if c > 0 then fa >= fb else fa = fb)

(* ------------------------------------------------------------------ *)
(* Reference model: byte-wise string arithmetic                         *)
(* ------------------------------------------------------------------ *)

(* The original implementation, one byte at a time on the 16-byte
   big-endian strings. The library computes on the two 64-bit halves;
   every operation must agree with this model. *)
module Ref = struct
  let size = 16
  let bits = 128

  let num_digits ~b = (bits + b - 1) / b
  let bit t k = (Char.code t.[k / 8] lsr (7 - (k mod 8))) land 1

  let digit ~b t i =
    let start = i * b in
    let len = min b (bits - start) in
    let v = ref 0 in
    for k = start to start + len - 1 do
      v := (!v lsl 1) lor bit t k
    done;
    !v

  let shared_prefix_length ~b a c =
    let n = num_digits ~b in
    let rec go i =
      if i >= n then n else if digit ~b a i = digit ~b c i then go (i + 1) else i
    in
    go 0

  let add a c =
    let r = Bytes.create size in
    let carry = ref 0 in
    for i = size - 1 downto 0 do
      let s = Char.code a.[i] + Char.code c.[i] + !carry in
      Bytes.set r i (Char.chr (s land 0xFF));
      carry := s lsr 8
    done;
    Bytes.to_string r

  let sub a c =
    let r = Bytes.create size in
    let borrow = ref 0 in
    for i = size - 1 downto 0 do
      let d = Char.code a.[i] - Char.code c.[i] - !borrow in
      if d < 0 then begin
        Bytes.set r i (Char.chr (d + 256));
        borrow := 1
      end
      else begin
        Bytes.set r i (Char.chr d);
        borrow := 0
      end
    done;
    Bytes.to_string r

  let cw_dist a c = sub c a

  let ring_dist a c =
    let d1 = sub c a and d2 = sub a c in
    if String.compare d1 d2 <= 0 then d1 else d2

  let in_cw_arc ~from ~til x = String.compare (cw_dist from x) (cw_dist from til) <= 0

  let closer ~key a c =
    let da = ring_dist a key and dc = ring_dist c key in
    let cmp = String.compare da dc in
    if cmp <> 0 then cmp < 0 else String.compare a c < 0
end

let of_halves h l =
  let b = Bytes.create 16 in
  Bytes.set_int64_be b 0 h;
  Bytes.set_int64_be b 8 l;
  Nodeid.of_string (Bytes.to_string b)

let raw = Nodeid.to_raw
let sign c = compare c 0

(* halves random 128-bit ids almost never produce: all-zero/all-one
   words, the sign bit alone, and values one step from a carry or
   borrow across bit 64 *)
let special_half =
  QCheck.Gen.oneofl
    [ 0L; 1L; 2L; -1L; -2L; Int64.min_int; Int64.max_int; Int64.succ Int64.min_int; 0xFFL ]

let gen_half = QCheck.Gen.(frequency [ (2, ui64); (1, special_half) ])

let gen_id =
  QCheck.Gen.(
    frequency
      [
        (3, map2 of_halves ui64 ui64);
        (3, map2 of_halves gen_half gen_half);
        (1, return Nodeid.zero);
        (1, return Nodeid.max_value);
      ])

let half_ring = of_halves Int64.min_int 0L

(* (key, a, c) triples biased towards the edge cases of ring arithmetic *)
let gen_triple =
  QCheck.Gen.(
    let* key = gen_id and* a = gen_id and* c = gen_id and* d = gen_id in
    let* lo = gen_half in
    oneofl
      [
        (key, a, c);
        (* equal candidates, and a key equal to a candidate *)
        (key, a, a);
        (key, key, c);
        (a, a, a);
        (* candidates mirrored around the key: ring distances tie, so
           only the identifier tie-break separates them *)
        (key, Nodeid.of_string (Ref.sub (raw key) (raw d)), Nodeid.of_string (Ref.add (raw key) (raw d)));
        (* antipodal: both directed distances are 2^127 *)
        (key, Nodeid.of_string (Ref.add (raw key) (raw half_ring)), c);
        (a, key, Nodeid.of_string (Ref.add (raw key) (raw half_ring)));
        (* ids that differ only in the low half *)
        (key, a, of_halves (String.get_int64_be (raw a) 0) lo);
        (* one step either side of the key across bit 64 *)
        (of_halves 5L 0L, of_halves 4L (-1L), of_halves 5L 1L);
      ])

let arb_triple =
  QCheck.make
    ~print:(fun (k, a, c) ->
      Printf.sprintf "key=%s a=%s c=%s" (Nodeid.to_hex k) (Nodeid.to_hex a) (Nodeid.to_hex c))
    gen_triple

let qcheck_ref_arith =
  QCheck.Test.make ~name:"add/sub/cw_dist/ring_dist match byte-wise model" ~count:2000
    arb_triple (fun (_, a, c) ->
      let same f g = String.equal (raw (f a c)) (g (raw a) (raw c)) in
      same Nodeid.add Ref.add && same Nodeid.sub Ref.sub && same Nodeid.cw_dist Ref.cw_dist
      && same Nodeid.ring_dist Ref.ring_dist)

let qcheck_ref_order =
  QCheck.Test.make ~name:"closer/in_cw_arc/comparators match byte-wise model" ~count:2000
    arb_triple (fun (k, a, c) ->
      let rk = raw k and ra = raw a and rc = raw c in
      Nodeid.closer ~key:k a c = Ref.closer ~key:rk ra rc
      && Nodeid.closer ~key:k c a = Ref.closer ~key:rk rc ra
      && Nodeid.in_cw_arc ~from:k ~til:a c = Ref.in_cw_arc ~from:rk ~til:ra rc
      && Nodeid.in_cw_arc ~from:a ~til:k c = Ref.in_cw_arc ~from:ra ~til:rk rc
      && sign (Nodeid.compare_cw_dist ~from:k a c)
         = sign (String.compare (Ref.cw_dist rk ra) (Ref.cw_dist rk rc))
      && sign (Nodeid.compare_ccw_dist ~from:k a c)
         = sign (String.compare (Ref.cw_dist ra rk) (Ref.cw_dist rc rk))
      && sign (Nodeid.compare_ring_dist ~key:k a c)
         = sign (String.compare (Ref.ring_dist ra rk) (Ref.ring_dist rc rk)))

let qcheck_ref_digits =
  QCheck.Test.make ~name:"prefix length and digits match byte-wise model (b=1..8)"
    ~count:500 arb_triple (fun (k, a, c) ->
      List.for_all
        (fun b ->
          Nodeid.shared_prefix_length ~b a c = Ref.shared_prefix_length ~b (raw a) (raw c)
          && Nodeid.shared_prefix_length ~b k a = Ref.shared_prefix_length ~b (raw k) (raw a)
          && List.for_all
               (fun i -> Nodeid.digit ~b a i = Ref.digit ~b (raw a) i)
               (List.init (Nodeid.num_digits ~b) Fun.id))
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])

(* stored distances order like the identifier comparators, and their
   sum test is exact at 2^127, with and without a carry between halves *)
let test_stored_distances () =
  let rng = Rng.create 41 in
  let a = Bytes.create Nodeid.dist_bytes and b = Bytes.create Nodeid.dist_bytes in
  let sign x = compare x 0 in
  for _ = 1 to 1000 do
    let from = Nodeid.random rng and x = Nodeid.random rng and y = Nodeid.random rng in
    Nodeid.store_dist a 0 ~cw:true ~from x;
    Nodeid.store_dist b 0 ~cw:true ~from y;
    Alcotest.(check int) "clockwise" (sign (Nodeid.compare_cw_dist ~from x y))
      (sign (Nodeid.compare_dist a 0 b 0));
    Nodeid.store_dist a 0 ~cw:false ~from x;
    Nodeid.store_dist b 0 ~cw:false ~from y;
    Alcotest.(check int) "counter-clockwise" (sign (Nodeid.compare_ccw_dist ~from x y))
      (sign (Nodeid.compare_dist a 0 b 0))
  done;
  let below d1 d2 =
    Nodeid.store_dist a 0 ~cw:true ~from:Nodeid.zero (id_of_hex d1);
    Nodeid.store_dist b 0 ~cw:true ~from:Nodeid.zero (id_of_hex d2);
    Nodeid.dist_sum_below_half a 0 b 0
  in
  (* 2^126 + 2^63 plus 2^126 − 2^63 + delta: the low halves carry from
     delta = 0 on *)
  let r = "40000000000000008000000000000000" in
  Alcotest.(check bool) "2^127 - 1" true (below r "3fffffffffffffff7fffffffffffffff");
  Alcotest.(check bool) "2^127 with carry" false (below r "3fffffffffffffff8000000000000000");
  Alcotest.(check bool) "2^127 + 1 with carry" false (below r "3fffffffffffffff8000000000000001");
  let m = "3fffffffffffffffffffffffffffffff" in
  Alcotest.(check bool) "2^127 - 2 with carry" true (below m m);
  Alcotest.(check bool) "2^127 - 1, low half zero" true (below (hex_with "4") m);
  Alcotest.(check bool) "2^127" false (below (hex_with "4") (hex_with "4"));
  Alcotest.(check bool) "one term >= 2^127" false (below (hex_with "8") (hex_with "0"))

let suite =
  [
    ( "nodeid",
      [
        Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
        Alcotest.test_case "of_hex validation" `Quick test_of_hex_validation;
        Alcotest.test_case "compare is numeric" `Quick test_compare_numeric;
        Alcotest.test_case "of_int" `Quick test_of_int;
        Alcotest.test_case "num_digits" `Quick test_num_digits;
        Alcotest.test_case "digit (b=4) matches hex" `Quick test_digit_b4_matches_hex;
        Alcotest.test_case "digit (b=1) is bits" `Quick test_digit_b1_is_bits;
        Alcotest.test_case "shared prefix" `Quick test_shared_prefix;
        Alcotest.test_case "modular add/sub" `Quick test_add_sub;
        Alcotest.test_case "clockwise distance" `Quick test_cw_dist;
        Alcotest.test_case "ring distance symmetric" `Quick test_ring_dist_symmetric;
        Alcotest.test_case "clockwise arcs" `Quick test_in_cw_arc;
        Alcotest.test_case "closer tie-break" `Quick test_closer_tiebreak;
        Alcotest.test_case "to_float" `Quick test_to_float;
        QCheck_alcotest.to_alcotest qcheck_add_sub_inverse;
        QCheck_alcotest.to_alcotest qcheck_cw_antisym;
        QCheck_alcotest.to_alcotest qcheck_prefix_symmetric;
        QCheck_alcotest.to_alcotest qcheck_digit_range;
        QCheck_alcotest.to_alcotest qcheck_closer_total;
        QCheck_alcotest.to_alcotest qcheck_to_float_monotone;
        QCheck_alcotest.to_alcotest qcheck_ref_arith;
        QCheck_alcotest.to_alcotest qcheck_ref_order;
        QCheck_alcotest.to_alcotest qcheck_ref_digits;
        Alcotest.test_case "stored distances" `Quick test_stored_distances;
      ] );
  ]
