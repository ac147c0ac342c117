module Fpformat = Geomix_precision.Fpformat
module Rng = Geomix_util.Rng

type fidelity = Per_op | Boundary

module A = Bigarray.Array1

(* The per-operation kernels run each output element's accumulation chain
   column by column (contiguous reads), rounding inline through
   [Fpformat.round_with]; each element sees the same operations in the
   same order as the textbook loop nest. *)

let gemm_nt_per_op ~prec ~alpha a b ~beta c =
  let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
  let r = Fpformat.rounder sa in
  let ar = Mat.rounded si a and br = Mat.rounded si b in
  let m = Mat.rows a and k = Mat.cols a and n = Mat.rows b in
  let ad = Mat.data ar and bd = Mat.data br and cd = Mat.data c in
  for j = 0 to n - 1 do
    let co = j * m in
    for i = co to co + m - 1 do
      A.unsafe_set cd i (Fpformat.round_with r (beta *. A.unsafe_get cd i))
    done;
    for p = 0 to k - 1 do
      let ao = p * m and bjp = A.unsafe_get bd (j + (p * n)) in
      for i = 0 to m - 1 do
        (* Tensor cores form exact products of the rounded inputs and round
           only the accumulation. *)
        let prod = alpha *. A.unsafe_get ad (ao + i) *. bjp in
        A.unsafe_set cd (co + i) (Fpformat.round_with r (A.unsafe_get cd (co + i) +. prod))
      done
    done
  done

let gemm_nt_boundary ~prec ~alpha a b ~beta c =
  let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
  let ar = Mat.rounded si a and br = Mat.rounded si b in
  Blas.gemm_nt ~alpha ar br ~beta c;
  Mat.round_inplace sa c

let gemm_nt ~fidelity ~prec ~alpha a b ~beta c =
  match (fidelity, prec) with
  | _, Fpformat.Fp64 -> Blas.gemm_nt ~alpha a b ~beta c
  | Per_op, _ -> gemm_nt_per_op ~prec ~alpha a b ~beta c
  | Boundary, _ -> gemm_nt_boundary ~prec ~alpha a b ~beta c

let syrk_lower_per_op ~prec ~alpha a ~beta c =
  let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
  let r = Fpformat.rounder sa in
  let ar = Mat.rounded si a in
  let n = Mat.rows a and k = Mat.cols a in
  let ad = Mat.data ar and cd = Mat.data c in
  for j = 0 to n - 1 do
    let co = j * n in
    for i = co + j to co + n - 1 do
      A.unsafe_set cd i (Fpformat.round_with r (beta *. A.unsafe_get cd i))
    done;
    for p = 0 to k - 1 do
      let ao = p * n in
      let ajp = A.unsafe_get ad (ao + j) in
      for i = j to n - 1 do
        let prod = alpha *. A.unsafe_get ad (ao + i) *. ajp in
        A.unsafe_set cd (co + i) (Fpformat.round_with r (A.unsafe_get cd (co + i) +. prod))
      done
    done
  done

let syrk_lower ~fidelity ~prec ~alpha a ~beta c =
  match (fidelity, prec) with
  | _, Fpformat.Fp64 -> Blas.syrk_lower ~alpha a ~beta c
  | Per_op, _ -> syrk_lower_per_op ~prec ~alpha a ~beta c
  | Boundary, _ ->
    let si = Fpformat.input_scalar prec and sa = Fpformat.accum_scalar prec in
    let ar = Mat.rounded si a in
    Blas.syrk_lower ~alpha ar ~beta c;
    Mat.round_inplace sa c

let trsm_per_op ~prec ~l b =
  let sa = Fpformat.accum_scalar prec in
  let r = Fpformat.rounder sa in
  let lr = Mat.rounded sa l in
  let n = Mat.cols b and m = Mat.rows b in
  let ld = Mat.data lr and bd = Mat.data b in
  for j = 0 to n - 1 do
    let bj = j * m in
    for p = 0 to j - 1 do
      let ljp = A.unsafe_get ld (j + (p * n)) in
      if ljp <> 0. then begin
        let bp = p * m in
        for i = 0 to m - 1 do
          A.unsafe_set bd (bj + i)
            (Fpformat.round_with r
               (A.unsafe_get bd (bj + i) -. Fpformat.round_with r (A.unsafe_get bd (bp + i) *. ljp)))
        done
      end
    done;
    let d = A.unsafe_get ld (j + (j * n)) in
    for i = bj to bj + m - 1 do
      A.unsafe_set bd i (Fpformat.round_with r (A.unsafe_get bd i /. d))
    done
  done

let trsm_right_lower_trans ~fidelity ~prec ~l b =
  match (fidelity, prec) with
  | _, Fpformat.Fp64 -> Blas.trsm_right_lower_trans ~l b
  | Per_op, _ ->
    Mat.round_inplace (Fpformat.accum_scalar prec) b;
    trsm_per_op ~prec ~l b
  | Boundary, _ ->
    let sa = Fpformat.accum_scalar prec in
    let lr = Mat.rounded sa l in
    Mat.round_inplace sa b;
    Blas.trsm_right_lower_trans ~l:lr b;
    Mat.round_inplace sa b

let potrf_per_op ~prec a =
  let sa = Fpformat.accum_scalar prec in
  let r = Fpformat.rounder sa in
  let n = Mat.rows a in
  Mat.round_inplace sa a;
  let ad = Mat.data a in
  (* Left-looking like [Blas.potrf_lower]: the pivot first, so a failing
     column is left as it was. *)
  for j = 0 to n - 1 do
    let cj = j * n in
    let s = ref (A.unsafe_get ad (cj + j)) in
    for p = 0 to j - 1 do
      let x = A.unsafe_get ad (j + (p * n)) in
      s := Fpformat.round_with r (!s -. Fpformat.round_with r (x *. x))
    done;
    if not (!s > 0.) then raise (Blas.Not_positive_definite j);
    let d = Fpformat.round_with r (sqrt !s) in
    A.unsafe_set ad (cj + j) d;
    for p = 0 to j - 1 do
      let o = p * n in
      let x = A.unsafe_get ad (o + j) in
      for i = j + 1 to n - 1 do
        A.unsafe_set ad (cj + i)
          (Fpformat.round_with r
             (A.unsafe_get ad (cj + i) -. Fpformat.round_with r (A.unsafe_get ad (o + i) *. x)))
      done
    done;
    for i = cj + j + 1 to cj + n - 1 do
      A.unsafe_set ad i (Fpformat.round_with r (A.unsafe_get ad i /. d))
    done
  done

let potrf_lower ~fidelity ~prec a =
  match (fidelity, prec) with
  | _, Fpformat.Fp64 -> Blas.potrf_lower a
  | Per_op, _ -> potrf_per_op ~prec a
  | Boundary, _ ->
    let sa = Fpformat.accum_scalar prec in
    Mat.round_inplace sa a;
    Blas.potrf_lower a;
    Mat.round_inplace sa a

let gemm_accuracy ~prec ~n ~rng =
  let a = Mat.init ~rows:n ~cols:n (fun _ _ -> Rng.float rng) in
  let b = Mat.init ~rows:n ~cols:n (fun _ _ -> Rng.float rng) in
  let c_ref = Mat.create ~rows:n ~cols:n in
  Blas.gemm_nt ~alpha:1. a b ~beta:0. c_ref;
  let c = Mat.create ~rows:n ~cols:n in
  gemm_nt ~fidelity:Per_op ~prec ~alpha:1. a b ~beta:0. c;
  Mat.rel_diff c ~reference:c_ref
