(** Differential oracles: independent re-derivations of the paper's core
    results, used by the property suites to cross-check the optimized
    implementations. *)

module Fpformat = Geomix_precision.Fpformat

val comm_reference :
  Geomix_core.Precision_map.t ->
  int ->
  int ->
  Fpformat.scalar * Geomix_core.Comm_map.strategy
(** Deliberately naive O(NT) per tile (O(NT³) total) reimplementation of
    Algorithm 2 for broadcast tile (i, j), i ≥ j: enumerate {e all}
    consumer kernels, take the highest input format any of them needs, cap
    at the storage format, STC iff strictly below storage. *)

val comm_mismatches :
  Geomix_core.Precision_map.t ->
  (int
  * int
  * (Fpformat.scalar * Geomix_core.Comm_map.strategy)
  * (Fpformat.scalar * Geomix_core.Comm_map.strategy))
  list
(** Tiles where [Comm_map.compute] disagrees with [comm_reference]:
    (i, j, expected, got).  Empty on a correct implementation. *)

val comm_map_agrees : Geomix_core.Precision_map.t -> bool

val residual_bound : ?c:float -> pmap:Geomix_core.Precision_map.t -> Geomix_tile.Tiled.t -> float
(** Higham–Mary-style bound on the relative Cholesky residual
    ‖A − LLᵀ‖/‖A‖ of a factorization executing tile (i,j) with rule
    epsilon ε(i,j):  c · NT · max_ij ε(i,j)·‖A_ij‖/‖A‖ + FP64 floor
    (c defaults to 64). *)

val factor_residual :
  ?options:Geomix_core.Mp_cholesky.options ->
  ?pool:Geomix_parallel.Pool.t ->
  pmap:Geomix_core.Precision_map.t ->
  nb:int ->
  Geomix_linalg.Mat.t ->
  float
(** Relative residual of the mixed-precision factorization of a dense SPD
    matrix under [pmap]. *)

val check_cholesky :
  ?c:float ->
  ?options:Geomix_core.Mp_cholesky.options ->
  pmap:Geomix_core.Precision_map.t ->
  nb:int ->
  Geomix_linalg.Mat.t ->
  float * float * float
(** The differential check: factorize under [pmap], compute the bound, and
    factorize in pure FP64.  Returns (mixed residual, bound, fp64
    residual); the caller asserts residual ≤ bound and fp64 residual ≤ the
    FP64 floor. *)

(** {1 Bitwise agreement} *)

val same_bits : float -> float -> bool
(** Equal [Int64.bits_of_float], or both NaN (sign and payload may differ);
    the definition in [blas.mli]. *)

val first_mismatch :
  Geomix_linalg.Mat.t -> Geomix_linalg.Mat.t -> (int * int * float * float) option
(** The first entry, in column-major order, where {!same_bits} fails:
    (i, j, left, right); [(-1, -1, nan, nan)] when the shapes differ. *)

(** {1 Reference kernels}

    The textbook FP64 kernels and the closure-per-element emulated kernels
    that {!Geomix_linalg.Blas} and {!Geomix_linalg.Blas_emul} replaced,
    kept verbatim as the test-only reference.  The optimized kernels must
    agree with them bitwise in the sense documented in [blas.mli]. *)

module Blas_ref : sig
  val gemm_nt :
    alpha:float -> Geomix_linalg.Mat.t -> Geomix_linalg.Mat.t -> beta:float -> Geomix_linalg.Mat.t -> unit

  val gemm :
    ?transa:bool ->
    ?transb:bool ->
    alpha:float ->
    Geomix_linalg.Mat.t ->
    Geomix_linalg.Mat.t ->
    beta:float ->
    Geomix_linalg.Mat.t ->
    unit

  val syrk_lower :
    alpha:float -> Geomix_linalg.Mat.t -> beta:float -> Geomix_linalg.Mat.t -> unit

  val trsm_right_lower_trans : l:Geomix_linalg.Mat.t -> Geomix_linalg.Mat.t -> unit
  val trsm_left_lower_notrans : l:Geomix_linalg.Mat.t -> Geomix_linalg.Mat.t -> unit

  val potrf_lower : Geomix_linalg.Mat.t -> unit
  (** @raise Geomix_linalg.Blas.Not_positive_definite like the optimized kernel. *)

  val trsv_lower : l:Geomix_linalg.Mat.t -> float array -> float array
  val trsv_lower_trans : l:Geomix_linalg.Mat.t -> float array -> float array
end

val round_inplace : Fpformat.scalar -> Geomix_linalg.Mat.t -> unit
(** Element-at-a-time conversion through the scalar {!Fpformat.round}. *)

val rounded : Fpformat.scalar -> Geomix_linalg.Mat.t -> Geomix_linalg.Mat.t

module Emul_ref : sig
  val gemm_nt :
    fidelity:Geomix_linalg.Blas_emul.fidelity ->
    prec:Fpformat.t ->
    alpha:float ->
    Geomix_linalg.Mat.t ->
    Geomix_linalg.Mat.t ->
    beta:float ->
    Geomix_linalg.Mat.t ->
    unit

  val syrk_lower :
    fidelity:Geomix_linalg.Blas_emul.fidelity ->
    prec:Fpformat.t ->
    alpha:float ->
    Geomix_linalg.Mat.t ->
    beta:float ->
    Geomix_linalg.Mat.t ->
    unit

  val trsm_right_lower_trans :
    fidelity:Geomix_linalg.Blas_emul.fidelity ->
    prec:Fpformat.t ->
    l:Geomix_linalg.Mat.t ->
    Geomix_linalg.Mat.t ->
    unit

  val potrf_lower :
    fidelity:Geomix_linalg.Blas_emul.fidelity -> prec:Fpformat.t -> Geomix_linalg.Mat.t -> unit
end
