type scalar = S_fp64 | S_fp32 | S_tf32 | S_bf16 | S_fp16 | S_fp8_e4m3 | S_fp8_e5m2

let all_scalars = [ S_fp64; S_fp32; S_tf32; S_bf16; S_fp16; S_fp8_e4m3; S_fp8_e5m2 ]

type spec = { mant : int; emin : int; emax : int }
(* [mant] is the number of explicitly stored significand bits; representable
   normal values are ±(1.m)·2^e with emin ≤ e ≤ emax, subnormals below. *)

let spec_of = function
  | S_fp64 -> { mant = 52; emin = -1022; emax = 1023 }
  | S_fp32 -> { mant = 23; emin = -126; emax = 127 }
  | S_tf32 -> { mant = 10; emin = -126; emax = 127 }
  | S_bf16 -> { mant = 7; emin = -126; emax = 127 }
  | S_fp16 -> { mant = 10; emin = -14; emax = 15 }
  | S_fp8_e4m3 -> { mant = 3; emin = -6; emax = 8 }
  | S_fp8_e5m2 -> { mant = 2; emin = -14; emax = 15 }

(* Round to nearest integer, ties to even.  [Float.round] rounds ties away
   from zero, so ties are detected and nudged back to the even neighbour. *)
let round_half_even x =
  let f = Float.round x in
  if Float.abs (x -. Float.trunc x) = 0.5 then
    if Float.rem f 2. <> 0. then f -. Float.copy_sign 1. x else f
  else f

let scalar_max_value = function
  (* OCP FP8 E4M3 reserves the all-ones pattern (S.1111.111) for NaN, so
     the largest finite magnitude is 1.110·2^8 = 448, not the generic
     (2 − 2^-3)·2^8 = 480. *)
  | S_fp8_e4m3 -> 448.
  | s ->
    let { mant; emax; _ } = spec_of s in
    Float.ldexp (2. -. Float.ldexp 1. (-mant)) emax

(* The FP8 formats saturate on finite overflow (OCP spec / saturating
   casts): anything rounding past the largest finite value clamps to it
   instead of producing an infinity E4M3 doesn't even have. *)
let saturating = function S_fp8_e4m3 | S_fp8_e5m2 -> true | _ -> false

let round s x =
  match s with
  | S_fp64 -> x
  | _ ->
    if x = 0. || not (Float.is_finite x) then x
    else begin
      let { mant; emin; emax } = spec_of s in
      let overflow () =
        if saturating s then Float.copy_sign (scalar_max_value s) x
        else Float.copy_sign infinity x
      in
      let _, e = Float.frexp x in
      (* x = m·2^e with |m| ∈ [0.5, 1); unbiased exponent is e-1 *)
      let eu = e - 1 in
      if eu > emax then overflow ()
      else begin
        let p = mant + 1 in
        let p = if eu < emin then p - (emin - eu) else p in
        if p <= 0 then begin
          (* Below the subnormal grid: round to 0 or the smallest subnormal. *)
          let tiny = Float.ldexp 1. (emin - mant) in
          if Float.abs x > tiny /. 2. then Float.copy_sign tiny x
          else Float.copy_sign 0. x
        end
        else begin
          let shift = p - e in
          let scaled = Float.ldexp x shift in
          let y = Float.ldexp (round_half_even scaled) (-shift) in
          if Float.abs y > scalar_max_value s then overflow () else y
        end
      end
    end

(* --- Bit-level rounding --------------------------------------------- *)

(* The same rounding as [round], for whole-tile loops: no frexp/ldexp and no
   closure per element.  FP32 is the hardware's own double-to-single
   conversion.  For the other formats, in the normal range the binary64
   bits are rounded to nearest even at the target's mantissa cut (a carry
   out of the significand bumps the exponent, which is still the correctly
   rounded result); in the target's subnormal range adding and subtracting
   a constant whose ulp is the subnormal spacing lets the FPU's own
   round-to-nearest-even do it. *)
type rounder = {
  single : bool;  (* FP32: round through Int32.bits_of_float *)
  shift : int;  (* 52 − mant: binary64 significand bits dropped *)
  half_m1 : int64;  (* 2^(shift−1) − 1: a tie rounds up only when odd *)
  odd : int64;  (* 1, or 0 for FP64 where nothing is dropped *)
  mask : int64;  (* clears the dropped bits *)
  min_normal : float;  (* 2^emin *)
  magic : float;  (* 2^(emin − mant + 52): its ulp is the subnormal spacing *)
  max_finite : float;
  overflow : float;  (* +inf, or the largest finite value when saturating *)
}

let rounder s =
  let { mant; emin; _ } = spec_of s in
  let shift = 52 - mant in
  let max_finite = if s = S_fp64 then Float.max_float else scalar_max_value s in
  {
    single = s = S_fp32;
    shift;
    half_m1 = (if shift = 0 then 0L else Int64.pred (Int64.shift_left 1L (shift - 1)));
    odd = (if shift = 0 then 0L else 1L);
    mask = Int64.lognot (Int64.pred (Int64.shift_left 1L shift));
    min_normal = Float.ldexp 1. emin;
    magic = Float.ldexp 1. (emin - mant + 52);
    max_finite;
    overflow = (if saturating s then max_finite else Float.infinity);
  }

let[@inline] round_with r x =
  (* Zeros, infinities and NaNs (where x − x is NaN) pass through. *)
  if x -. x <> 0. then x
  else if r.single then Int32.float_of_bits (Int32.bits_of_float x)
  else if x = 0. then x
  else if Float.abs x < r.min_normal then begin
    let y = if x > 0. then x +. r.magic -. r.magic else x -. r.magic +. r.magic in
    (* −c + c is +0: restore the sign of an underflow to zero. *)
    if y = 0. then if x > 0. then 0. else -0. else y
  end
  else begin
    let b = Int64.bits_of_float x in
    let b =
      Int64.add b
        (Int64.add r.half_m1 (Int64.logand (Int64.shift_right_logical b r.shift) r.odd))
    in
    let y = Int64.float_of_bits (Int64.logand b r.mask) in
    if Float.abs y > r.max_finite then if x > 0. then r.overflow else -.r.overflow else y
  end

let scalar_bytes = function
  | S_fp64 -> 8
  | S_fp32 | S_tf32 -> 4
  | S_bf16 | S_fp16 -> 2
  | S_fp8_e4m3 | S_fp8_e5m2 -> 1

let scalar_unit_roundoff s =
  let { mant; _ } = spec_of s in
  Float.ldexp 1. (-(mant + 1))

let scalar_min_subnormal s =
  let { mant; emin; _ } = spec_of s in
  Float.ldexp 1. (emin - mant)

let scalar_rank = function
  | S_fp64 -> 7
  | S_fp32 -> 6
  | S_tf32 -> 5
  | S_fp16 -> 4
  | S_bf16 -> 3
  | S_fp8_e4m3 -> 2
  | S_fp8_e5m2 -> 1

let higher_scalar a b = if scalar_rank a >= scalar_rank b then a else b

(* [refines t s]: every value representable in [s] is also representable in
   [t] — at least as many significand bits and a wider exponent range on
   both sides.  Note this is a partial order, not the [scalar_rank] chain:
   FP16 and BF16 are incomparable (more mantissa vs more range). *)
let refines t s =
  let a = spec_of t and b = spec_of s in
  a.mant >= b.mant && a.emin <= b.emin && a.emax >= b.emax

let scalar_name = function
  | S_fp64 -> "FP64"
  | S_fp32 -> "FP32"
  | S_tf32 -> "TF32"
  | S_bf16 -> "BF16"
  | S_fp16 -> "FP16"
  | S_fp8_e4m3 -> "FP8_E4M3"
  | S_fp8_e5m2 -> "FP8_E5M2"

let scalar_of_string s =
  match String.uppercase_ascii s with
  | "FP64" -> Some S_fp64
  | "FP32" -> Some S_fp32
  | "TF32" -> Some S_tf32
  | "BF16" -> Some S_bf16
  | "FP16" -> Some S_fp16
  | "FP8_E4M3" | "E4M3" -> Some S_fp8_e4m3
  | "FP8_E5M2" | "E5M2" -> Some S_fp8_e5m2
  | _ -> None

let pp_scalar ppf s = Format.pp_print_string ppf (scalar_name s)

(* --- FP8 byte codec ---------------------------------------------------- *)

(* (exponent bits, mantissa bits, bias).  E4M3 follows the OCP variant: no
   infinities, NaN only at S.1111.111; E5M2 is IEEE-structured with ±inf at
   S.11111.00 and NaNs at nonzero mantissa under the all-ones exponent. *)
let fp8_params = function
  | S_fp8_e4m3 -> (4, 3, 7)
  | S_fp8_e5m2 -> (5, 2, 15)
  | s -> invalid_arg ("Fpformat.fp8: not an FP8 scalar: " ^ scalar_name s)

let fp8_decode s b =
  if b < 0 || b > 255 then invalid_arg "Fpformat.fp8_decode: byte out of range";
  let ebits, mbits, bias = fp8_params s in
  let sign = if b land 0x80 <> 0 then -1. else 1. in
  let e = (b lsr mbits) land ((1 lsl ebits) - 1) in
  let m = b land ((1 lsl mbits) - 1) in
  let e_ones = (1 lsl ebits) - 1 in
  if e = 0 then sign *. Float.ldexp (float_of_int m) (1 - bias - mbits)
  else if s = S_fp8_e5m2 && e = e_ones then
    if m = 0 then sign *. infinity else Float.copy_sign nan sign
  else if s = S_fp8_e4m3 && e = e_ones && m = (1 lsl mbits) - 1 then
    Float.copy_sign nan sign
  else sign *. Float.ldexp (float_of_int ((1 lsl mbits) lor m)) (e - bias - mbits)

let fp8_encode s x =
  let ebits, mbits, bias = fp8_params s in
  let e_ones = (1 lsl ebits) - 1 in
  let sign_bit = if Float.sign_bit x then 0x80 else 0 in
  if Float.is_nan x then
    (* Canonical quiet NaN: E4M3's single pattern; E5M2's quiet bit set. *)
    if s = S_fp8_e4m3 then sign_bit lor (e_ones lsl mbits) lor ((1 lsl mbits) - 1)
    else sign_bit lor (e_ones lsl mbits) lor (1 lsl (mbits - 1))
  else begin
    let y = round s x in
    if y = 0. then sign_bit
    else if Float.is_finite y then begin
      let m, e = Float.frexp (Float.abs y) in
      let eu = e - 1 in
      let emin = 1 - bias in
      if eu < emin then
        (* Subnormal: field = |y| / 2^(emin - mbits). *)
        sign_bit lor int_of_float (Float.ldexp (Float.abs y) (bias - 1 + mbits))
      else
        sign_bit
        lor ((eu + bias) lsl mbits)
        lor int_of_float (Float.ldexp (m -. 0.5) (mbits + 1))
    end
    else if s = S_fp8_e5m2 then sign_bit lor (e_ones lsl mbits) (* ±inf *)
    else sign_bit lor (e_ones lsl mbits) lor ((1 lsl mbits) - 2) (* ±448: E4M3 has no inf *)
  end

type t = Fp64 | Fp32 | Tf32 | Fp16_32 | Bf16_32 | Fp16

let all = [ Fp64; Fp32; Tf32; Fp16_32; Bf16_32; Fp16 ]
let framework_chain = [ Fp64; Fp32; Fp16_32; Fp16 ]

let input_scalar = function
  | Fp64 -> S_fp64
  | Fp32 -> S_fp32
  | Tf32 -> S_tf32
  | Fp16_32 -> S_fp16
  | Bf16_32 -> S_bf16
  | Fp16 -> S_fp16

let accum_scalar = function
  | Fp64 -> S_fp64
  | Fp32 | Tf32 | Fp16_32 | Bf16_32 -> S_fp32
  | Fp16 -> S_fp16

let storage_scalar = function Fp64 -> S_fp64 | Fp32 | Tf32 | Fp16_32 | Bf16_32 | Fp16 -> S_fp32

let rule_epsilon = function
  | Fp64 -> Float.ldexp 1. (-53)
  | Fp32 -> Float.ldexp 1. (-24)
  | Tf32 -> Float.ldexp 1. (-11)
  | Fp16_32 -> Float.ldexp 1. (-13)
  | Bf16_32 -> Float.ldexp 1. (-10)
  | Fp16 -> Float.ldexp 1. (-11)

let rank = function
  | Fp64 -> 6
  | Fp32 -> 5
  | Tf32 -> 4
  | Fp16_32 -> 3
  | Bf16_32 -> 2
  | Fp16 -> 1

let compare_precision a b = Int.compare (rank a) (rank b)

let name = function
  | Fp64 -> "FP64"
  | Fp32 -> "FP32"
  | Tf32 -> "TF32"
  | Fp16_32 -> "FP16_32"
  | Bf16_32 -> "BF16_32"
  | Fp16 -> "FP16"

let of_string s =
  match String.uppercase_ascii s with
  | "FP64" -> Some Fp64
  | "FP32" -> Some Fp32
  | "TF32" -> Some Tf32
  | "FP16_32" -> Some Fp16_32
  | "BF16_32" -> Some Bf16_32
  | "FP16" -> Some Fp16
  | _ -> None

let pp ppf t = Format.pp_print_string ppf (name t)
