(** FP64 dense kernels — the four numerical kernels of the tile Cholesky
    of Algorithm 1 (POTRF, TRSM, SYRK, GEMM) plus the triangular and
    general building blocks the application driver needs.

    All kernels index the column-major buffer of {!Mat} directly and
    operate in place where BLAS would.

    {b Bitwise contract.}  Every kernel computes each output element with
    the same operations in the same order as the textbook loop nest kept in
    [Geomix_verify.Oracle.Blas_ref] (p ascending for every sum, the same
    [x <> 0.] skips), so the two agree {e bitwise}: equal
    [Int64.bits_of_float] on every non-NaN entry, and NaN in the same
    positions.  Only the sign and payload of a NaN may differ, because x86
    [addsd] propagates its first operand's NaN and the compiler may swap
    the operands of a commutative operation.  The differential suites in
    [test/test_blas.ml] and [test/test_blas_emul.ml] check this over random
    shapes with ±0, subnormal, infinite and NaN inputs. *)

exception Not_positive_definite of int
(** Raised by {!potrf_lower} with the index of the failing pivot. *)

val gemm :
  ?transa:bool ->
  ?transb:bool ->
  alpha:float ->
  Mat.t ->
  Mat.t ->
  beta:float ->
  Mat.t ->
  unit
(** [gemm ~alpha a b ~beta c] performs [C ← α·op(A)·op(B) + β·C]. *)

val gemm_nt : alpha:float -> Mat.t -> Mat.t -> beta:float -> Mat.t -> unit
(** Specialised [C ← α·A·Bᵀ + β·C] — the Cholesky update kernel (GEMM in
    Algorithm 1 runs with α = −1, β = 1). *)

val syrk_lower : alpha:float -> Mat.t -> beta:float -> Mat.t -> unit
(** [syrk_lower ~alpha a ~beta c]: [C ← α·A·Aᵀ + β·C], touching only the
    lower triangle of the square matrix [c]. *)

val trsm_right_lower_trans : l:Mat.t -> Mat.t -> unit
(** [trsm_right_lower_trans ~l b] solves [X·Lᵀ = B] in place in [b], with
    [l] lower triangular — the TRSM of Algorithm 1. *)

val trsm_left_lower_notrans : l:Mat.t -> Mat.t -> unit
(** [trsm_left_lower_notrans ~l b] solves [L·X = B] in place in [b] — the
    panel solve the TLR TRSM applies to a tile's V factor. *)

val potrf_lower : Mat.t -> unit
(** In-place lower Cholesky factorization of a symmetric positive-definite
    matrix (only the lower triangle is read; the strict upper triangle is
    left untouched).
    @raise Not_positive_definite if a pivot is not strictly positive
    (or NaN).  Columns left of the failing one hold their final factor;
    the failing column and every column right of it are untouched. *)

val trsv_lower : l:Mat.t -> float array -> float array
(** Solve [L·y = b] (forward substitution). *)

val trsv_lower_trans : l:Mat.t -> float array -> float array
(** Solve [Lᵀ·x = b] (backward substitution). *)

val cholesky : Mat.t -> Mat.t
(** Convenience: copy, factorize, zero the upper triangle; the input is a
    full symmetric matrix. *)

val log_det_from_chol : Mat.t -> float
(** [2·Σ log L_ii] — the log-determinant term of the Gaussian
    log-likelihood, Eq. (1) of the paper. *)
