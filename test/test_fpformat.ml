module Fp = Geomix_precision.Fpformat

let scalar = Alcotest.testable Fp.pp_scalar ( = )

let test_fp64_identity () =
  List.iter
    (fun x -> Alcotest.(check (float 0.)) "identity" x (Fp.round Fp.S_fp64 x))
    [ 0.; 1.; -1.; Float.pi; 1e-300; 1e300; 0.1 ]

let test_special_values () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "nan" true (Float.is_nan (Fp.round s nan));
      Alcotest.(check (float 0.)) "inf" infinity (Fp.round s infinity);
      Alcotest.(check (float 0.)) "-inf" neg_infinity (Fp.round s neg_infinity);
      Alcotest.(check (float 0.)) "zero" 0. (Fp.round s 0.))
    Fp.all_scalars

let test_exact_values_fixed () =
  (* Powers of two and small integers inside the format's range are exact
     in every format (1024 exceeds E4M3's 448 ceiling, so keep the probe
     set within every range). *)
  List.iter
    (fun s ->
      List.iter
        (fun x ->
          if Float.abs x <= Fp.scalar_max_value s then
            Alcotest.(check (float 0.)) "exact" x (Fp.round s x))
        [ 1.; 2.; 0.5; -4.; 1024.; 0.0625; 3.; -7. ])
    Fp.all_scalars

let test_fp16_known_roundings () =
  (* FP16 has a 10-bit stored mantissa: ulp at 1.0 is 2^-10. *)
  let ulp = Float.ldexp 1. (-10) in
  Alcotest.(check (float 0.)) "round down" 1. (Fp.round Fp.S_fp16 (1. +. (ulp /. 4.)));
  Alcotest.(check (float 0.)) "round up" (1. +. ulp)
    (Fp.round Fp.S_fp16 (1. +. (0.75 *. ulp)));
  (* Tie at half ulp goes to even (mantissa 0). *)
  Alcotest.(check (float 0.)) "tie to even" 1. (Fp.round Fp.S_fp16 (1. +. (ulp /. 2.)))

let test_fp16_overflow () =
  Alcotest.(check (float 0.)) "max fp16" 65504. (Fp.round Fp.S_fp16 65504.);
  Alcotest.(check (float 0.)) "overflow" infinity (Fp.round Fp.S_fp16 65520.);
  Alcotest.(check (float 0.)) "neg overflow" neg_infinity (Fp.round Fp.S_fp16 (-70000.))

let test_fp16_subnormals () =
  let tiny = Float.ldexp 1. (-24) in
  (* smallest fp16 subnormal *)
  Alcotest.(check (float 0.)) "subnormal exact" tiny (Fp.round Fp.S_fp16 tiny);
  Alcotest.(check (float 0.)) "below half-tiny flushes" 0.
    (Fp.round Fp.S_fp16 (tiny /. 4.));
  Alcotest.(check (float 0.)) "above half-tiny rounds up" tiny
    (Fp.round Fp.S_fp16 (0.6 *. tiny))

let test_bf16_range () =
  (* BF16 shares FP32's exponent range: 1e38 survives, precision is coarse. *)
  let r = Fp.round Fp.S_bf16 1e38 in
  Alcotest.(check bool) "finite" true (Float.is_finite r);
  Alcotest.(check bool) "coarse" true (Float.abs (r -. 1e38) /. 1e38 < 4e-3)

let test_fp32_matches_int32_roundtrip () =
  (* Values exactly representable in fp32 must round to themselves. *)
  List.iter
    (fun x -> Alcotest.(check (float 0.)) "fp32 exact" x (Fp.round Fp.S_fp32 x))
    [ 1.5; 3.25; 123456.; Float.ldexp 1. (-126); -0.1015625 ]

let test_unit_roundoff_ordering () =
  let u = Fp.scalar_unit_roundoff in
  Alcotest.(check bool) "fp64 < fp32" true (u Fp.S_fp64 < u Fp.S_fp32);
  Alcotest.(check bool) "fp32 < tf32" true (u Fp.S_fp32 < u Fp.S_tf32);
  Alcotest.(check bool) "tf32 = fp16" true (u Fp.S_tf32 = u Fp.S_fp16);
  Alcotest.(check bool) "fp16 < bf16" true (u Fp.S_fp16 < u Fp.S_bf16);
  Alcotest.(check bool) "bf16 < e4m3" true (u Fp.S_bf16 < u Fp.S_fp8_e4m3);
  Alcotest.(check bool) "e4m3 < e5m2" true (u Fp.S_fp8_e4m3 < u Fp.S_fp8_e5m2);
  Alcotest.(check (float 0.)) "e4m3 u" (Float.ldexp 1. (-4)) (u Fp.S_fp8_e4m3);
  Alcotest.(check (float 0.)) "e5m2 u" (Float.ldexp 1. (-3)) (u Fp.S_fp8_e5m2)

let test_bytes () =
  Alcotest.(check int) "fp64" 8 (Fp.scalar_bytes Fp.S_fp64);
  Alcotest.(check int) "fp32" 4 (Fp.scalar_bytes Fp.S_fp32);
  Alcotest.(check int) "tf32 stored as 4B" 4 (Fp.scalar_bytes Fp.S_tf32);
  Alcotest.(check int) "fp16" 2 (Fp.scalar_bytes Fp.S_fp16);
  Alcotest.(check int) "bf16" 2 (Fp.scalar_bytes Fp.S_bf16);
  Alcotest.(check int) "e4m3" 1 (Fp.scalar_bytes Fp.S_fp8_e4m3);
  Alcotest.(check int) "e5m2" 1 (Fp.scalar_bytes Fp.S_fp8_e5m2)

let test_higher_scalar () =
  Alcotest.(check scalar) "64 vs 16" Fp.S_fp64 (Fp.higher_scalar Fp.S_fp64 Fp.S_fp16);
  Alcotest.(check scalar) "16 vs 32" Fp.S_fp32 (Fp.higher_scalar Fp.S_fp16 Fp.S_fp32);
  Alcotest.(check scalar) "bf16 lowest" Fp.S_fp16 (Fp.higher_scalar Fp.S_bf16 Fp.S_fp16)

let test_precision_mappings () =
  Alcotest.(check scalar) "fp16_32 input" Fp.S_fp16 (Fp.input_scalar Fp.Fp16_32);
  Alcotest.(check scalar) "fp16_32 accum" Fp.S_fp32 (Fp.accum_scalar Fp.Fp16_32);
  Alcotest.(check scalar) "fp16 accum" Fp.S_fp16 (Fp.accum_scalar Fp.Fp16);
  Alcotest.(check scalar) "tf32 input" Fp.S_tf32 (Fp.input_scalar Fp.Tf32);
  Alcotest.(check scalar) "fp64 storage" Fp.S_fp64 (Fp.storage_scalar Fp.Fp64);
  (* TRSM cannot run below FP32 ⇒ FP16-class tiles are stored in FP32. *)
  Alcotest.(check scalar) "fp16 storage" Fp.S_fp32 (Fp.storage_scalar Fp.Fp16);
  Alcotest.(check scalar) "fp16_32 storage" Fp.S_fp32 (Fp.storage_scalar Fp.Fp16_32)

let test_rule_epsilon_ordering () =
  (* Lower precision ⇒ larger u_low ⇒ stricter norm threshold. *)
  Alcotest.(check bool) "chain" true
    (Fp.rule_epsilon Fp.Fp64 < Fp.rule_epsilon Fp.Fp32
    && Fp.rule_epsilon Fp.Fp32 < Fp.rule_epsilon Fp.Fp16_32
    && Fp.rule_epsilon Fp.Fp16_32 < Fp.rule_epsilon Fp.Fp16)

let test_names_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "of_string∘name" true (Fp.of_string (Fp.name p) = Some p))
    Fp.all;
  List.iter
    (fun s ->
      Alcotest.(check bool) "scalar roundtrip" true
        (Fp.scalar_of_string (Fp.scalar_name s) = Some s))
    Fp.all_scalars;
  Alcotest.(check bool) "unknown" true (Fp.of_string "FP8" = None)

(* --- FP8 (OCP e4m3 / e5m2) --------------------------------------------- *)

let fp8s = [ Fp.S_fp8_e4m3; Fp.S_fp8_e5m2 ]

let test_fp8_known_values () =
  (* E4M3: max finite 448 (all-ones pattern is NaN, not a number). *)
  Alcotest.(check (float 0.)) "e4m3 max" 448. (Fp.scalar_max_value Fp.S_fp8_e4m3);
  Alcotest.(check (float 0.)) "e4m3 max exact" 448. (Fp.round Fp.S_fp8_e4m3 448.);
  Alcotest.(check (float 0.)) "e5m2 max" 57344. (Fp.scalar_max_value Fp.S_fp8_e5m2);
  Alcotest.(check (float 0.)) "e5m2 max exact" 57344. (Fp.round Fp.S_fp8_e5m2 57344.);
  (* Smallest subnormals: 2^-9 and 2^-16. *)
  Alcotest.(check (float 0.)) "e4m3 tiny" (Float.ldexp 1. (-9))
    (Fp.scalar_min_subnormal Fp.S_fp8_e4m3);
  Alcotest.(check (float 0.)) "e5m2 tiny" (Float.ldexp 1. (-16))
    (Fp.scalar_min_subnormal Fp.S_fp8_e5m2);
  (* Grid rounding at 1.0: ulp is 2^-3 / 2^-2. *)
  Alcotest.(check (float 0.)) "e4m3 1+eps/4 down" 1.
    (Fp.round Fp.S_fp8_e4m3 (1. +. (0.25 /. 8.)));
  Alcotest.(check (float 0.)) "e4m3 tie to even" 1.
    (Fp.round Fp.S_fp8_e4m3 (1. +. (0.5 /. 8.)));
  Alcotest.(check (float 0.)) "e4m3 up" 1.125 (Fp.round Fp.S_fp8_e4m3 1.1);
  (* Subnormal flush boundary. *)
  Alcotest.(check (float 0.)) "e4m3 tiny/2 flushes" 0.
    (Fp.round Fp.S_fp8_e4m3 (Float.ldexp 1. (-10)));
  Alcotest.(check (float 0.)) "e4m3 0.75·tiny rounds up" (Float.ldexp 1. (-9))
    (Fp.round Fp.S_fp8_e4m3 (0.75 *. Float.ldexp 1. (-9)))

let test_fp8_saturation () =
  (* Finite overflow saturates to ±max instead of producing an infinity
     (which E4M3 does not even have). *)
  Alcotest.(check (float 0.)) "464 rounds to even 448" 448.
    (Fp.round Fp.S_fp8_e4m3 464.);
  Alcotest.(check (float 0.)) "465 saturates" 448. (Fp.round Fp.S_fp8_e4m3 465.);
  Alcotest.(check (float 0.)) "1e6 saturates" 448. (Fp.round Fp.S_fp8_e4m3 1e6);
  Alcotest.(check (float 0.)) "neg saturates" (-448.) (Fp.round Fp.S_fp8_e4m3 (-1e6));
  Alcotest.(check (float 0.)) "e5m2 saturates" 57344. (Fp.round Fp.S_fp8_e5m2 1e9);
  Alcotest.(check (float 0.)) "e5m2 neg" (-57344.) (Fp.round Fp.S_fp8_e5m2 (-61441.));
  (* Infinities still pass through round (they are inputs, not overflow). *)
  Alcotest.(check (float 0.)) "inf passes" infinity (Fp.round Fp.S_fp8_e4m3 infinity)

let test_fp8_codec_known_patterns () =
  (* E4M3: 0x7E = 448, 0x01 = 2^-9, 0x7F = NaN, 0x80 = -0. *)
  Alcotest.(check (float 0.)) "e4m3 0x7E" 448. (Fp.fp8_decode Fp.S_fp8_e4m3 0x7E);
  Alcotest.(check (float 0.)) "e4m3 0x01" (Float.ldexp 1. (-9))
    (Fp.fp8_decode Fp.S_fp8_e4m3 0x01);
  Alcotest.(check bool) "e4m3 0x7F nan" true
    (Float.is_nan (Fp.fp8_decode Fp.S_fp8_e4m3 0x7F));
  Alcotest.(check bool) "e4m3 0x80 is -0" true
    (Float.sign_bit (Fp.fp8_decode Fp.S_fp8_e4m3 0x80));
  (* E5M2: 0x7B = 57344 (max finite), 0x7C = +inf, 0x7D–0x7F = NaN. *)
  Alcotest.(check (float 0.)) "e5m2 0x7B" 57344. (Fp.fp8_decode Fp.S_fp8_e5m2 0x7B);
  Alcotest.(check (float 0.)) "e5m2 0x7C inf" infinity
    (Fp.fp8_decode Fp.S_fp8_e5m2 0x7C);
  Alcotest.(check (float 0.)) "e5m2 0xFC -inf" neg_infinity
    (Fp.fp8_decode Fp.S_fp8_e5m2 0xFC);
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "e5m2 0x%02X nan" b)
        true
        (Float.is_nan (Fp.fp8_decode Fp.S_fp8_e5m2 b)))
    [ 0x7D; 0x7E; 0x7F; 0xFD; 0xFE; 0xFF ]

(* The tentpole's exhaustive check: every one of the 256 bit patterns of
   each FP8 format round-trips through decode → encode.  Non-NaN patterns
   are exact fixed points of both the codec and [round]; NaN patterns stay
   NaN with their sign preserved (encode canonicalizes E5M2's three NaN
   mantissas). *)
let test_fp8_exhaustive_roundtrip () =
  List.iter
    (fun s ->
      for b = 0 to 255 do
        let name = Printf.sprintf "%s 0x%02X" (Fp.scalar_name s) b in
        let v = Fp.fp8_decode s b in
        if Float.is_nan v then begin
          let e = Fp.fp8_encode s v in
          Alcotest.(check bool) (name ^ " nan stays nan") true
            (Float.is_nan (Fp.fp8_decode s e));
          Alcotest.(check int) (name ^ " nan sign") (b land 0x80) (e land 0x80)
        end
        else begin
          Alcotest.(check int) (name ^ " roundtrip") b (Fp.fp8_encode s v);
          (* Every representable value is a fixed point of rounding. *)
          if Float.is_finite v then
            Alcotest.(check (float 0.)) (name ^ " fixed point") v (Fp.round s v)
        end
      done)
    fp8s

let test_fp8_encode_of_unrepresentable () =
  (* encode = encode ∘ round: saturation and ties handled identically. *)
  Alcotest.(check int) "465 → 0x7E" 0x7E (Fp.fp8_encode Fp.S_fp8_e4m3 465.);
  Alcotest.(check int) "-1e9 → 0xFE" 0xFE (Fp.fp8_encode Fp.S_fp8_e4m3 (-1e9));
  Alcotest.(check int) "e5m2 +inf → 0x7C" 0x7C (Fp.fp8_encode Fp.S_fp8_e5m2 infinity);
  Alcotest.(check int) "e4m3 +inf → 0x7E" 0x7E (Fp.fp8_encode Fp.S_fp8_e4m3 infinity);
  Alcotest.(check int) "e4m3 nan → 0x7F" 0x7F (Fp.fp8_encode Fp.S_fp8_e4m3 nan);
  Alcotest.(check int) "-0 → 0x80" 0x80 (Fp.fp8_encode Fp.S_fp8_e4m3 (-0.))

let test_fp8_partial_order () =
  (* Every wider format in the chain refines both FP8s... *)
  List.iter
    (fun t ->
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s refines %s" (Fp.scalar_name t) (Fp.scalar_name s))
            true (Fp.refines t s))
        fp8s)
    [ Fp.S_fp64; Fp.S_fp32; Fp.S_tf32; Fp.S_fp16; Fp.S_bf16 ];
  (* ...but the two FP8s are incomparable (precision vs range), like
     FP16/BF16 one level up. *)
  Alcotest.(check bool) "e4m3 !> e5m2" false (Fp.refines Fp.S_fp8_e4m3 Fp.S_fp8_e5m2);
  Alcotest.(check bool) "e5m2 !> e4m3" false (Fp.refines Fp.S_fp8_e5m2 Fp.S_fp8_e4m3);
  Alcotest.(check bool) "nothing below refines fp16" false
    (Fp.refines Fp.S_fp8_e4m3 Fp.S_fp16)

let fp8_value_gen =
  (* Concentrated where FP8 values live, including subnormal and
     saturation territory. *)
  QCheck.oneof
    [
      QCheck.float_range (-480.) 480.;
      QCheck.float_range (-1.) 1.;
      QCheck.float_range (-70000.) 70000.;
      QCheck.float_range (-0.01) 0.01;
    ]

let prop_fp8_round_idempotent =
  QCheck.Test.make ~name:"FP8 rounding is idempotent" ~count:2000
    (QCheck.pair (QCheck.oneofl fp8s) fp8_value_gen)
    (fun (s, x) ->
      let y = Fp.round s x in
      Fp.round s y = y)

let prop_fp8_round_monotone =
  QCheck.Test.make ~name:"FP8 rounding is monotone" ~count:2000
    (QCheck.triple (QCheck.oneofl fp8s) fp8_value_gen fp8_value_gen)
    (fun (s, a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Fp.round s lo <= Fp.round s hi)

let prop_fp8_respects_partial_order =
  (* refines t s ⇒ re-rounding an s-value to t is the identity: an FP8
     result survives a trip through FP16/BF16 (or wider) untouched. *)
  QCheck.Test.make ~name:"FP8 values are fixed points of refining formats" ~count:2000
    (QCheck.triple (QCheck.oneofl fp8s)
       (QCheck.oneofl [ Fp.S_fp16; Fp.S_bf16; Fp.S_tf32; Fp.S_fp32 ])
       fp8_value_gen)
    (fun (s, t, x) ->
      let y = Fp.round s x in
      (not (Float.is_finite y)) || Fp.round t y = y)

let prop_fp8_codec_matches_round =
  QCheck.Test.make ~name:"fp8 decode∘encode = round" ~count:2000
    (QCheck.pair (QCheck.oneofl fp8s) fp8_value_gen)
    (fun (s, x) ->
      Fp.fp8_decode s (Fp.fp8_encode s x) = Fp.round s x
      || Float.is_nan x)

(* OCaml's Int32.bits_of_float performs IEEE double→single conversion with
   round-to-nearest-even in hardware: a perfect oracle for S_fp32. *)
let hw_fp32 x = Int32.float_of_bits (Int32.bits_of_float x)

let test_fp32_against_hardware_fixed () =
  List.iter
    (fun x ->
      let ours = Fp.round Fp.S_fp32 x and hw = hw_fp32 x in
      Alcotest.(check bool)
        (Printf.sprintf "%.17g: ours %.17g vs hw %.17g" x ours hw)
        true
        (ours = hw || (Float.is_nan ours && Float.is_nan hw)))
    [
      0.1; -0.1; Float.pi; exp 1.; 1e-40; -1e-40; 1e38; 3.4028235e38; 3.5e38;
      1.1754944e-38; 1e-45; 7e-46; 0.333333333333333; 65504.1; 2.0 ** 127.;
      1.9999999 *. (2.0 ** 127.); -123456.789;
    ]

let prop_fp32_matches_hardware =
  QCheck.Test.make ~name:"S_fp32 rounding = hardware float32 conversion" ~count:20000
    (QCheck.oneof
       [
         QCheck.float_range (-1e38) 1e38;
         QCheck.float_range (-1.) 1.;
         QCheck.float_range (-1e-37) 1e-37; (* subnormal territory *)
         QCheck.float_range 1e37 4e38;      (* overflow boundary *)
       ])
    (fun x ->
      let ours = Fp.round Fp.S_fp32 x and hw = hw_fp32 x in
      ours = hw || (Float.is_nan ours && Float.is_nan hw))

let float_gen = QCheck.float_range (-1e30) 1e30

let prop_idempotent =
  QCheck.Test.make ~name:"rounding is idempotent" ~count:2000
    (QCheck.pair (QCheck.oneofl Fp.all_scalars) float_gen)
    (fun (s, x) ->
      let y = Fp.round s x in
      (Float.is_nan y && Float.is_nan x) || Fp.round s y = y)

let prop_monotone =
  QCheck.Test.make ~name:"rounding is monotone" ~count:2000
    (QCheck.triple (QCheck.oneofl Fp.all_scalars) float_gen float_gen)
    (fun (s, a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Fp.round s lo <= Fp.round s hi)

let prop_half_ulp =
  QCheck.Test.make ~name:"error within half ulp (normal range)" ~count:2000
    (QCheck.pair (QCheck.oneofl Fp.all_scalars) (QCheck.float_range (-1e4) 1e4))
    (fun (s, x) ->
      if x = 0. then true
      else begin
        let u = Fp.scalar_unit_roundoff s in
        (* The relative bound only holds inside the format's normal range:
           outside it FP8 saturates (and any format underflows gradually). *)
        let min_normal = Fp.scalar_min_subnormal s /. (2. *. u) in
        if Float.abs x > Fp.scalar_max_value s || Float.abs x < min_normal then true
        else begin
          let y = Fp.round s x in
          if not (Float.is_finite y) then true
          else Float.abs (y -. x) <= (u *. Float.abs x) +. 1e-300
        end
      end)

let prop_sign_preserved =
  QCheck.Test.make ~name:"sign preserved" ~count:1000
    (QCheck.pair (QCheck.oneofl Fp.all_scalars) float_gen)
    (fun (s, x) ->
      let y = Fp.round s x in
      y = 0. || Float.sign_bit y = Float.sign_bit x)

(* --- bit-level rounding against the scalar reference ------------------ *)

let same_bits = Geomix_verify.Oracle.same_bits

let check_same s x =
  let want = Fp.round s x and got = Fp.round_with (Fp.rounder s) x in
  Alcotest.(check bool)
    (Printf.sprintf "%s %h: round %h, round_with %h" (Fp.scalar_name s) x want got)
    true (same_bits want got)

(* Grid facts of a format: spacing at 1.0, at the top binade, and the
   smallest normal / subnormal magnitudes. *)
let ulp1 s = 2. *. Fp.scalar_unit_roundoff s
let min_sub s = Fp.scalar_min_subnormal s
let min_normal s = min_sub s /. ulp1 s

(* Every edge a rounding routine can get wrong, on both sides of zero:
   ties to even at the mantissa cut, the largest finite value and the
   first value past it, the normal/subnormal boundary, the smallest
   subnormal and half of it, signed zeros and the non-finite values. *)
let edges s =
  let u = ulp1 s and mx = Fp.scalar_max_value s and tiny = min_sub s and mn = min_normal s in
  let top_ulp = Float.ldexp u (snd (Float.frexp mx) - 1) in
  let around x = [ Float.pred x; x; Float.succ x ] in
  let positive =
    List.concat
      [
        around (1. +. (u /. 2.));
        around (1. +. (3. *. u /. 2.));
        around (Float.ldexp (1. +. (u /. 2.)) 5);
        around mx;
        around (mx +. (top_ulp /. 2.));
        around (mx +. top_ulp);
        around mn;
        around (mn -. (tiny /. 2.));
        around tiny;
        around (tiny /. 2.);
        around (3. *. tiny /. 2.);
        [ Float.min_float; 5e-324; Float.max_float; 0.; Float.infinity; 1e300 ];
      ]
  in
  positive @ List.map Float.neg positive @ [ Float.nan; -.Float.nan ]

let test_round_with_edges () = List.iter (fun s -> List.iter (check_same s) (edges s)) Fp.all_scalars

let test_round_with_known () =
  let r s x = Fp.round_with (Fp.rounder s) x in
  let check what want got = Alcotest.(check bool) what true (same_bits want got) in
  check "fp16 max" 65504. (r Fp.S_fp16 65504.);
  check "fp16 just below the overflow tie" 65504. (r Fp.S_fp16 (Float.pred 65520.));
  check "fp16 overflow tie" Float.infinity (r Fp.S_fp16 65520.);
  check "fp16 negative overflow" Float.neg_infinity (r Fp.S_fp16 (-65520.));
  check "e4m3 max" 448. (r Fp.S_fp8_e4m3 448.);
  check "e4m3 tie to even below 480" 448. (r Fp.S_fp8_e4m3 464.);
  check "e4m3 saturates" 448. (r Fp.S_fp8_e4m3 465.);
  check "e4m3 saturates far out" (-448.) (r Fp.S_fp8_e4m3 (-1e30));
  check "fp16 tie to even" 1. (r Fp.S_fp16 (1. +. Float.ldexp 1. (-11)));
  check "fp16 tie to even (odd below)" (1. +. Float.ldexp 1. (-9))
    (r Fp.S_fp16 (1. +. (3. *. Float.ldexp 1. (-11))));
  check "fp16 half the smallest subnormal" 0. (r Fp.S_fp16 (Float.ldexp 1. (-25)));
  check "fp16 negative underflow keeps its sign" (-0.) (r Fp.S_fp16 (-.Float.ldexp 1. (-25)));
  check "fp16 just above half the smallest subnormal" (Float.ldexp 1. (-24))
    (r Fp.S_fp16 (Float.succ (Float.ldexp 1. (-25))));
  check "-0 passes through" (-0.) (r Fp.S_bf16 (-0.));
  check "fp32 -0" (-0.) (r Fp.S_fp32 (-0.))

(* Uniformly random binary64 bit patterns (mostly huge or tiny), and
   patterns whose exponent lies in or near each format's range. *)
let bits_gen =
  QCheck.make ~print:(fun (s, x) -> Printf.sprintf "%s %h" (Fp.scalar_name s) x)
    QCheck.Gen.(
      pair (oneofl Fp.all_scalars) ui64 >>= fun (s, b) ->
      map
        (fun e ->
          let x = Int64.float_of_bits b in
          if e > 1000 then (s, x)
          else
            let m, _ = Float.frexp x in
            (s, Float.ldexp m (e - 190)))
        (int_range 0 1100))

let prop_round_with_random_bits =
  QCheck.Test.make ~name:"round_with = round on random bit patterns" ~count:20000 bits_gen
    (fun (s, x) -> same_bits (Fp.round s x) (Fp.round_with (Fp.rounder s) x))

let () =
  Alcotest.run "fpformat"
    [
      ( "rounding",
        [
          Alcotest.test_case "fp64 identity" `Quick test_fp64_identity;
          Alcotest.test_case "special values" `Quick test_special_values;
          Alcotest.test_case "exact values" `Quick test_exact_values_fixed;
          Alcotest.test_case "fp16 known roundings" `Quick test_fp16_known_roundings;
          Alcotest.test_case "fp16 overflow" `Quick test_fp16_overflow;
          Alcotest.test_case "fp16 subnormals" `Quick test_fp16_subnormals;
          Alcotest.test_case "bf16 range" `Quick test_bf16_range;
          Alcotest.test_case "fp32 exact values" `Quick test_fp32_matches_int32_roundtrip;
          Alcotest.test_case "fp32 = hardware (fixed cases)" `Quick
            test_fp32_against_hardware_fixed;
          QCheck_alcotest.to_alcotest prop_fp32_matches_hardware;
        ] );
      ( "format metadata",
        [
          Alcotest.test_case "unit roundoff ordering" `Quick test_unit_roundoff_ordering;
          Alcotest.test_case "bytes" `Quick test_bytes;
          Alcotest.test_case "higher_scalar" `Quick test_higher_scalar;
          Alcotest.test_case "precision mappings" `Quick test_precision_mappings;
          Alcotest.test_case "rule epsilon ordering" `Quick test_rule_epsilon_ordering;
          Alcotest.test_case "names roundtrip" `Quick test_names_roundtrip;
        ] );
      ( "fp8",
        [
          Alcotest.test_case "known values" `Quick test_fp8_known_values;
          Alcotest.test_case "saturation" `Quick test_fp8_saturation;
          Alcotest.test_case "codec known patterns" `Quick test_fp8_codec_known_patterns;
          Alcotest.test_case "exhaustive 256-pattern roundtrip" `Quick
            test_fp8_exhaustive_roundtrip;
          Alcotest.test_case "encode of unrepresentable" `Quick
            test_fp8_encode_of_unrepresentable;
          Alcotest.test_case "partial order" `Quick test_fp8_partial_order;
        ] );
      ( "bit-level",
        [
          Alcotest.test_case "round_with = round at the edges" `Quick test_round_with_edges;
          Alcotest.test_case "round_with known values" `Quick test_round_with_known;
          QCheck_alcotest.to_alcotest prop_round_with_random_bits;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_idempotent; prop_monotone; prop_half_ulp; prop_sign_preserved;
            prop_fp8_round_idempotent; prop_fp8_round_monotone;
            prop_fp8_respects_partial_order; prop_fp8_codec_matches_round;
          ] );
    ]
