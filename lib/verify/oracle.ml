(* Differential oracles.

   Two independent re-derivations of the paper's core results, used by the
   property suites to cross-check the optimized implementations:

   - [comm_reference] is a deliberately naive O(NT³) reimplementation of
     Algorithm 2: for every broadcasting tile it enumerates *all* consumer
     kernels, takes the highest input format any of them needs, caps at the
     storage format and declares STC iff the result is strictly below
     storage.  [Comm_map.compute] short-circuits those scans; the two must
     agree tile-for-tile on any precision map.

   - [factor_residual] / [residual_bound] check the mixed-precision
     Cholesky against the FP64 reference: the relative residual
     ‖A − LLᵀ‖/‖A‖ of a factorization that executes tile (i,j) with rule
     epsilon ε(i,j) is bounded (Higham–Mary-style, as the paper's norm rule
     presumes) by c · NT · max_ij ε(i,j)·‖A_ij‖/‖A‖ plus the FP64 floor. *)

module Fpformat = Geomix_precision.Fpformat
module Fp = Fpformat
module Pm = Geomix_core.Precision_map
module Cm = Geomix_core.Comm_map
module Mp = Geomix_core.Mp_cholesky
module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Check = Geomix_linalg.Check
module Tiled = Geomix_tile.Tiled

(* --- Algorithm 2, brute force ----------------------------------------- *)

(* Shipped format and strategy of broadcast tile (i, j) ≥ diagonal, by
   direct enumeration of every consumer. *)
let comm_reference pmap i j =
  let nt = Pm.nt pmap in
  let storage = Pm.storage pmap i j in
  let cap c =
    if Fp.scalar_rank c < Fp.scalar_rank storage then (c, Cm.Stc) else (storage, Cm.Ttc)
  in
  if i = j then begin
    let k = i in
    if k = nt - 1 then (storage, Cm.Ttc) (* no successors: nothing ships *)
    else begin
      (* POTRF(k) feeds every TRSM(m,k); TRSM never executes below FP32. *)
      let c = ref Fp.S_fp32 in
      for m = k + 1 to nt - 1 do
        let trsm_in =
          match Pm.get pmap m k with Fp.Fp64 -> Fp.S_fp64 | _ -> Fp.S_fp32
        in
        c := Fp.higher_scalar !c trsm_in
      done;
      cap !c
    end
  end
  else begin
    let m = i and k = j in
    (* TRSM(m,k) feeds SYRK(m,k) (which consumes whatever ships), the row
       GEMMs (m,n,k) for k < n < m and the column GEMMs (m',m,k) for
       m < m' < NT.  The floor is the tile's own input significance. *)
    let c = ref (Fp.input_scalar (Pm.get pmap m k)) in
    for n = k + 1 to m - 1 do
      c := Fp.higher_scalar !c (Fp.input_scalar (Pm.get pmap m n))
    done;
    for m' = m + 1 to nt - 1 do
      c := Fp.higher_scalar !c (Fp.input_scalar (Pm.get pmap m' m))
    done;
    cap !c
  end

(* Tiles where [Comm_map.compute] disagrees with the brute-force rule:
   (i, j, (scalar, strategy) expected, (scalar, strategy) got). *)
let comm_mismatches pmap =
  let cm = Cm.compute pmap in
  let out = ref [] in
  for i = Pm.nt pmap - 1 downto 0 do
    for j = i downto 0 do
      let expected = comm_reference pmap i j in
      let got = (Cm.comm_scalar cm i j, Cm.strategy cm i j) in
      if expected <> got then out := (i, j, expected, got) :: !out
    done
  done;
  !out

let comm_map_agrees pmap = comm_mismatches pmap = []

(* --- mixed-precision Cholesky vs the FP64 reference -------------------- *)

let residual_bound ?(c = 64.) ~pmap tiled =
  let nt = Tiled.nt tiled in
  let gnorm = Tiled.frobenius tiled in
  let worst = ref 0. in
  for i = 0 to nt - 1 do
    for j = 0 to i do
      let e = Fp.rule_epsilon (Pm.get pmap i j) in
      let r = Tiled.tile_frobenius tiled i j /. gnorm in
      if e *. r > !worst then worst := e *. r
    done
  done;
  (c *. float_of_int nt *. !worst) +. 1e-13

(* Relative residual ‖A − LLᵀ‖/‖A‖ of the mixed-precision factorization of
   [dense] under [pmap]. *)
let factor_residual ?options ?pool ~pmap ~nb dense =
  let a = Tiled.of_dense ~nb dense in
  Mp.factorize ?options ?pool ~pmap a;
  let l = Tiled.to_dense a in
  Mat.zero_upper l;
  Check.cholesky_residual ~a:dense ~l

(* The differential check itself: factorize under [pmap], factorize in pure
   FP64, return (mixed residual, bound, fp64 residual).  The caller asserts
   residual ≤ bound and fp64_residual ≤ the FP64 floor. *)
let check_cholesky ?c ?options ~pmap ~nb dense =
  let residual = factor_residual ?options ~pmap ~nb dense in
  let bound = residual_bound ?c ~pmap (Tiled.of_dense ~nb dense) in
  let nt = Pm.nt pmap in
  let fp64 = factor_residual ~pmap:(Pm.uniform ~nt Fp.Fp64) ~nb dense in
  (residual, bound, fp64)

(* --- Bitwise agreement ------------------------------------------------- *)

(* Equal bits, except that any two NaNs agree: x86 [addsd] propagates its
   first operand's NaN and the compiler may swap commutative operands, so
   only a NaN's sign and payload may differ. *)
let same_bits x y =
  if Float.is_nan x then Float.is_nan y
  else (not (Float.is_nan y)) && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let first_mismatch a b =
  if Mat.rows a <> Mat.rows b || Mat.cols a <> Mat.cols b then Some (-1, -1, nan, nan)
  else begin
    let found = ref None in
    for j = Mat.cols a - 1 downto 0 do
      for i = Mat.rows a - 1 downto 0 do
        let x = Mat.get a i j and y = Mat.get b i j in
        if not (same_bits x y) then found := Some (i, j, x, y)
      done
    done;
    !found
  end

(* --- Reference kernels ------------------------------------------------- *)

(* The textbook FP64 kernels the optimized [Blas] replaced, kept verbatim
   (element accessors, row-oriented dot products, a closure per rounding)
   as the test-only reference the differential suites compare against
   bitwise. *)
module Blas_ref = struct
  let gemm_nt ~alpha a b ~beta c =
    let m = Mat.rows a and k = Mat.cols a and n = Mat.rows b in
    assert (Mat.cols b = k);
    assert (Mat.rows c = m && Mat.cols c = n);
    if beta <> 1. then Mat.scale c beta;
    for j = 0 to n - 1 do
      for p = 0 to k - 1 do
        let bjp = alpha *. Mat.unsafe_get b j p in
        if bjp <> 0. then
          for i = 0 to m - 1 do
            Mat.unsafe_set c i j (Mat.unsafe_get c i j +. (Mat.unsafe_get a i p *. bjp))
          done
      done
    done

  let gemm ?(transa = false) ?(transb = false) ~alpha a b ~beta c =
    let opa i p = if transa then Mat.unsafe_get a p i else Mat.unsafe_get a i p in
    let opb p j = if transb then Mat.unsafe_get b j p else Mat.unsafe_get b p j in
    let m = if transa then Mat.cols a else Mat.rows a in
    let k = if transa then Mat.rows a else Mat.cols a in
    let n = if transb then Mat.rows b else Mat.cols b in
    assert ((if transb then Mat.cols b else Mat.rows b) = k);
    assert (Mat.rows c = m && Mat.cols c = n);
    if beta <> 1. then Mat.scale c beta;
    for j = 0 to n - 1 do
      for p = 0 to k - 1 do
        let bpj = alpha *. opb p j in
        if bpj <> 0. then
          for i = 0 to m - 1 do
            Mat.unsafe_set c i j (Mat.unsafe_get c i j +. (opa i p *. bpj))
          done
      done
    done

  let syrk_lower ~alpha a ~beta c =
    let n = Mat.rows a and k = Mat.cols a in
    assert (Mat.rows c = n && Mat.cols c = n);
    if beta <> 1. then
      for j = 0 to n - 1 do
        for i = j to n - 1 do
          Mat.unsafe_set c i j (beta *. Mat.unsafe_get c i j)
        done
      done;
    for j = 0 to n - 1 do
      for p = 0 to k - 1 do
        let ajp = alpha *. Mat.unsafe_get a j p in
        if ajp <> 0. then
          for i = j to n - 1 do
            Mat.unsafe_set c i j (Mat.unsafe_get c i j +. (Mat.unsafe_get a i p *. ajp))
          done
      done
    done

  let trsm_right_lower_trans ~l b =
    let n = Mat.cols b and m = Mat.rows b in
    assert (Mat.rows l = n && Mat.cols l = n);
    (* Solve X·Lᵀ = B column block by column block:
       X(:,j) = (B(:,j) − Σ_{p<j} X(:,p)·L(j,p)) / L(j,j). *)
    for j = 0 to n - 1 do
      for p = 0 to j - 1 do
        let ljp = Mat.unsafe_get l j p in
        if ljp <> 0. then
          for i = 0 to m - 1 do
            Mat.unsafe_set b i j (Mat.unsafe_get b i j -. (Mat.unsafe_get b i p *. ljp))
          done
      done;
      let d = Mat.unsafe_get l j j in
      for i = 0 to m - 1 do
        Mat.unsafe_set b i j (Mat.unsafe_get b i j /. d)
      done
    done

  let trsm_left_lower_notrans ~l b =
    let m = Mat.rows b and n = Mat.cols b in
    assert (Mat.rows l = m && Mat.cols l = m);
    (* Forward substitution down each column of B. *)
    for j = 0 to n - 1 do
      for i = 0 to m - 1 do
        let s = ref (Mat.unsafe_get b i j) in
        for p = 0 to i - 1 do
          s := !s -. (Mat.unsafe_get l i p *. Mat.unsafe_get b p j)
        done;
        Mat.unsafe_set b i j (!s /. Mat.unsafe_get l i i)
      done
    done

  let potrf_lower a =
    let n = Mat.rows a in
    assert (Mat.cols a = n);
    for j = 0 to n - 1 do
      (* Pivot: A(j,j) − Σ_{p<j} A(j,p)². *)
      let s = ref (Mat.unsafe_get a j j) in
      for p = 0 to j - 1 do
        let x = Mat.unsafe_get a j p in
        s := !s -. (x *. x)
      done;
      if not (!s > 0.) then raise (Blas.Not_positive_definite j);
      let d = sqrt !s in
      Mat.unsafe_set a j j d;
      for i = j + 1 to n - 1 do
        let s = ref (Mat.unsafe_get a i j) in
        for p = 0 to j - 1 do
          s := !s -. (Mat.unsafe_get a i p *. Mat.unsafe_get a j p)
        done;
        Mat.unsafe_set a i j (!s /. d)
      done
    done

  let trsv_lower ~l b =
    let n = Mat.rows l in
    assert (Array.length b = n);
    let y = Array.copy b in
    for i = 0 to n - 1 do
      let s = ref y.(i) in
      for p = 0 to i - 1 do
        s := !s -. (Mat.unsafe_get l i p *. y.(p))
      done;
      y.(i) <- !s /. Mat.unsafe_get l i i
    done;
    y

  let trsv_lower_trans ~l b =
    let n = Mat.rows l in
    assert (Array.length b = n);
    let x = Array.copy b in
    for i = n - 1 downto 0 do
      let s = ref x.(i) in
      for p = i + 1 to n - 1 do
        s := !s -. (Mat.unsafe_get l p i *. x.(p))
      done;
      x.(i) <- !s /. Mat.unsafe_get l i i
    done;
    x
end

module Emul = Geomix_linalg.Blas_emul

(* Element-at-a-time conversion through the scalar [Fpformat.round]. *)
let round_inplace scalar t =
  match scalar with
  | Fp.S_fp64 -> ()
  | _ -> Mat.map_inplace (Fp.round scalar) t

let rounded scalar t =
  let t' = Mat.copy t in
  round_inplace scalar t';
  t'

(* The emulated kernels as they were before the bit-level rounding: every
   rounding a closure call of [Fpformat.round], the Boundary path through
   [Blas_ref]. *)
module Emul_ref = struct
  let gemm_nt_per_op ~prec ~alpha a b ~beta c =
    let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
    let r = Fpformat.round sa in
    let ar = rounded si a and br = rounded si b in
    let m = Mat.rows a and k = Mat.cols a and n = Mat.rows b in
    for j = 0 to n - 1 do
      for i = 0 to m - 1 do
        let acc = ref (r (beta *. Mat.unsafe_get c i j)) in
        for p = 0 to k - 1 do
          (* Tensor cores form exact products of the rounded inputs and round
             only the accumulation. *)
          let prod = alpha *. Mat.unsafe_get ar i p *. Mat.unsafe_get br j p in
          acc := r (!acc +. prod)
        done;
        Mat.unsafe_set c i j !acc
      done
    done

  let gemm_nt_boundary ~prec ~alpha a b ~beta c =
    let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
    let ar = rounded si a and br = rounded si b in
    Blas_ref.gemm_nt ~alpha ar br ~beta c;
    round_inplace sa c

  let gemm_nt ~fidelity ~prec ~alpha a b ~beta c =
    match ((fidelity : Emul.fidelity), prec) with
    | _, Fpformat.Fp64 -> Blas_ref.gemm_nt ~alpha a b ~beta c
    | Emul.Per_op, _ -> gemm_nt_per_op ~prec ~alpha a b ~beta c
    | Emul.Boundary, _ -> gemm_nt_boundary ~prec ~alpha a b ~beta c

  let syrk_lower_per_op ~prec ~alpha a ~beta c =
    let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
    let r = Fpformat.round sa in
    let ar = rounded si a in
    let n = Mat.rows a and k = Mat.cols a in
    for j = 0 to n - 1 do
      for i = j to n - 1 do
        let acc = ref (r (beta *. Mat.unsafe_get c i j)) in
        for p = 0 to k - 1 do
          let prod = alpha *. Mat.unsafe_get ar i p *. Mat.unsafe_get ar j p in
          acc := r (!acc +. prod)
        done;
        Mat.unsafe_set c i j !acc
      done
    done

  let syrk_lower ~fidelity ~prec ~alpha a ~beta c =
    match ((fidelity : Emul.fidelity), prec) with
    | _, Fpformat.Fp64 -> Blas_ref.syrk_lower ~alpha a ~beta c
    | Emul.Per_op, _ -> syrk_lower_per_op ~prec ~alpha a ~beta c
    | Emul.Boundary, _ ->
      let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
      let ar = rounded si a in
      Blas_ref.syrk_lower ~alpha ar ~beta c;
      round_inplace sa c

  let trsm_per_op ~prec ~l b =
    let sa = Fpformat.accum_scalar prec in
    let r = Fpformat.round sa in
    let lr = rounded sa l in
    let n = Mat.cols b and m = Mat.rows b in
    for j = 0 to n - 1 do
      for p = 0 to j - 1 do
        let ljp = Mat.unsafe_get lr j p in
        if ljp <> 0. then
          for i = 0 to m - 1 do
            Mat.unsafe_set b i j
              (r (Mat.unsafe_get b i j -. r (Mat.unsafe_get b i p *. ljp)))
          done
      done;
      let d = Mat.unsafe_get lr j j in
      for i = 0 to m - 1 do
        Mat.unsafe_set b i j (r (Mat.unsafe_get b i j /. d))
      done
    done

  let trsm_right_lower_trans ~fidelity ~prec ~l b =
    match ((fidelity : Emul.fidelity), prec) with
    | _, Fpformat.Fp64 -> Blas_ref.trsm_right_lower_trans ~l b
    | Emul.Per_op, _ ->
      round_inplace (Fpformat.accum_scalar prec) b;
      trsm_per_op ~prec ~l b
    | Emul.Boundary, _ ->
      let sa = Fpformat.accum_scalar prec in
      let lr = rounded sa l in
      round_inplace sa b;
      Blas_ref.trsm_right_lower_trans ~l:lr b;
      round_inplace sa b

  let potrf_per_op ~prec a =
    let sa = Fpformat.accum_scalar prec in
    let r = Fpformat.round sa in
    let n = Mat.rows a in
    round_inplace sa a;
    for j = 0 to n - 1 do
      let s = ref (Mat.unsafe_get a j j) in
      for p = 0 to j - 1 do
        let x = Mat.unsafe_get a j p in
        s := r (!s -. r (x *. x))
      done;
      if not (!s > 0.) then raise (Blas.Not_positive_definite j);
      let d = r (sqrt !s) in
      Mat.unsafe_set a j j d;
      for i = j + 1 to n - 1 do
        let s = ref (Mat.unsafe_get a i j) in
        for p = 0 to j - 1 do
          s := r (!s -. r (Mat.unsafe_get a i p *. Mat.unsafe_get a j p))
        done;
        Mat.unsafe_set a i j (r (!s /. d))
      done
    done

  let potrf_lower ~fidelity ~prec a =
    match ((fidelity : Emul.fidelity), prec) with
    | _, Fpformat.Fp64 -> Blas_ref.potrf_lower a
    | Emul.Per_op, _ -> potrf_per_op ~prec a
    | Emul.Boundary, _ ->
      let sa = Fpformat.accum_scalar prec in
      round_inplace sa a;
      Blas_ref.potrf_lower a;
      round_inplace sa a
end
