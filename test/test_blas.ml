module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Check = Geomix_linalg.Check
module Rng = Geomix_util.Rng
module Oracle = Geomix_verify.Oracle
module Gen = Geomix_verify.Gen

let test_gemm_nt_small () =
  (* C = A·Bᵀ with A=[[1,2],[3,4]], B=[[5,6],[7,8]] ⇒ [[17,23],[39,53]]. *)
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Mat.create ~rows:2 ~cols:2 in
  Blas.gemm_nt ~alpha:1. a b ~beta:0. c;
  Alcotest.(check (array (array (float 1e-12)))) "A·Bᵀ"
    [| [| 17.; 23. |]; [| 39.; 53. |] |]
    (Mat.to_arrays c)

let test_gemm_alpha_beta () =
  let a = Mat.identity 2 and b = Mat.identity 2 in
  let c = Mat.of_arrays [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  Blas.gemm_nt ~alpha:2. a b ~beta:3. c;
  Alcotest.(check (float 1e-12)) "diag" 5. (Mat.get c 0 0);
  Alcotest.(check (float 1e-12)) "off" 3. (Mat.get c 0 1)

let test_gemm_trans_variants () =
  let rng = Rng.create ~seed:5 in
  let a = Mat.init ~rows:4 ~cols:3 (fun _ _ -> Rng.gaussian rng) in
  let b = Mat.init ~rows:3 ~cols:5 (fun _ _ -> Rng.gaussian rng) in
  (* A·B via gemm, vs (via transposes) opᵀ paths. *)
  let c1 = Mat.create ~rows:4 ~cols:5 in
  Blas.gemm ~alpha:1. a b ~beta:0. c1;
  let c2 = Mat.create ~rows:4 ~cols:5 in
  Blas.gemm ~transa:true ~alpha:1. (Mat.transpose a) b ~beta:0. c2;
  Alcotest.(check (float 1e-12)) "transa path" 0. (Mat.rel_diff c2 ~reference:c1);
  let c3 = Mat.create ~rows:4 ~cols:5 in
  Blas.gemm ~transb:true ~alpha:1. a (Mat.transpose b) ~beta:0. c3;
  Alcotest.(check (float 1e-12)) "transb path" 0. (Mat.rel_diff c3 ~reference:c1)

let test_gemm_nt_consistent_with_gemm () =
  let rng = Rng.create ~seed:9 in
  let a = Mat.init ~rows:6 ~cols:4 (fun _ _ -> Rng.gaussian rng) in
  let b = Mat.init ~rows:5 ~cols:4 (fun _ _ -> Rng.gaussian rng) in
  let c1 = Mat.create ~rows:6 ~cols:5 in
  Blas.gemm_nt ~alpha:1. a b ~beta:0. c1;
  let c2 = Mat.create ~rows:6 ~cols:5 in
  Blas.gemm ~transb:true ~alpha:1. a b ~beta:0. c2;
  Alcotest.(check (float 1e-12)) "agree" 0. (Mat.rel_diff c1 ~reference:c2)

let test_syrk_lower () =
  let rng = Rng.create ~seed:11 in
  let a = Mat.init ~rows:5 ~cols:3 (fun _ _ -> Rng.gaussian rng) in
  let c = Mat.create ~rows:5 ~cols:5 in
  Blas.syrk_lower ~alpha:1. a ~beta:0. c;
  let full = Mat.create ~rows:5 ~cols:5 in
  Blas.gemm_nt ~alpha:1. a a ~beta:0. full;
  for j = 0 to 4 do
    for i = j to 4 do
      Alcotest.(check (float 1e-12)) "lower matches AAᵀ" (Mat.get full i j) (Mat.get c i j)
    done;
    for i = 0 to j - 1 do
      Alcotest.(check (float 0.)) "upper untouched" 0. (Mat.get c i j)
    done
  done

let test_potrf_identity () =
  let a = Mat.identity 4 in
  Blas.potrf_lower a;
  Alcotest.(check (float 1e-12)) "L = I" 0. (Mat.rel_diff a ~reference:(Mat.identity 4))

let test_potrf_known () =
  (* [[4,2],[2,5]] = [[2,0],[1,2]]·[[2,1],[0,2]]. *)
  let a = Mat.of_arrays [| [| 4.; 2. |]; [| 2.; 5. |] |] in
  Blas.potrf_lower a;
  Alcotest.(check (float 1e-12)) "L00" 2. (Mat.get a 0 0);
  Alcotest.(check (float 1e-12)) "L10" 1. (Mat.get a 1 0);
  Alcotest.(check (float 1e-12)) "L11" 2. (Mat.get a 1 1)

let test_potrf_residual_random () =
  let rng = Rng.create ~seed:13 in
  List.iter
    (fun n ->
      let a = Check.spd_random ~rng ~n in
      let l = Blas.cholesky a in
      Alcotest.(check bool)
        (Printf.sprintf "residual n=%d" n)
        true
        (Check.cholesky_residual ~a ~l < 1e-13))
    [ 1; 2; 5; 17; 64 ]

let test_potrf_rejects_indefinite () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  (* eigenvalues 3, −1 *)
  Alcotest.check_raises "not SPD" (Blas.Not_positive_definite 1) (fun () ->
    Blas.potrf_lower a)

let test_trsm () =
  let rng = Rng.create ~seed:17 in
  let spd = Check.spd_random ~rng ~n:6 in
  let l = Blas.cholesky spd in
  let x_true = Mat.init ~rows:4 ~cols:6 (fun _ _ -> Rng.gaussian rng) in
  (* B = X·Lᵀ, then solve back. *)
  let b = Mat.create ~rows:4 ~cols:6 in
  Blas.gemm ~transb:true ~alpha:1. x_true l ~beta:0. b;
  Blas.trsm_right_lower_trans ~l b;
  Alcotest.(check bool) "recovered X" true (Mat.rel_diff b ~reference:x_true < 1e-12)

let test_trsm_left_lower () =
  let rng = Rng.create ~seed:18 in
  let spd = Check.spd_random ~rng ~n:7 in
  let l = Blas.cholesky spd in
  let x_true = Mat.init ~rows:7 ~cols:4 (fun _ _ -> Rng.gaussian rng) in
  (* B = L·X, solve back in place. *)
  let b = Mat.create ~rows:7 ~cols:4 in
  Blas.gemm ~alpha:1. l x_true ~beta:0. b;
  Blas.trsm_left_lower_notrans ~l b;
  Alcotest.(check bool) "recovered X" true (Mat.rel_diff b ~reference:x_true < 1e-12)

let test_trsm_left_right_consistent () =
  (* Solving X·Lᵀ = B row-wise equals solving L·Xᵀ = Bᵀ column-wise. *)
  let rng = Rng.create ~seed:21 in
  let spd = Check.spd_random ~rng ~n:6 in
  let l = Blas.cholesky spd in
  let b = Mat.init ~rows:5 ~cols:6 (fun _ _ -> Rng.gaussian rng) in
  let right = Mat.copy b in
  Blas.trsm_right_lower_trans ~l right;
  let left = Mat.transpose b in
  Blas.trsm_left_lower_notrans ~l left;
  Alcotest.(check (float 1e-12)) "consistent" 0.
    (Mat.rel_diff (Mat.transpose left) ~reference:right)

let test_trsv_roundtrip () =
  let rng = Rng.create ~seed:19 in
  let a = Check.spd_random ~rng ~n:12 in
  let l = Blas.cholesky a in
  let b = Array.init 12 (fun i -> cos (float_of_int i)) in
  let y = Blas.trsv_lower ~l b in
  let x = Blas.trsv_lower_trans ~l y in
  Alcotest.(check bool) "A·x = b" true (Check.solve_residual ~a ~x ~b < 1e-12)

let test_log_det () =
  let a = Mat.of_arrays [| [| 4.; 0. |]; [| 0.; 9. |] |] in
  let l = Blas.cholesky a in
  Alcotest.(check (float 1e-12)) "log det" (log 36.) (Blas.log_det_from_chol l)

let prop_cholesky_roundtrip =
  QCheck.Test.make ~name:"L·Lᵀ reconstructs SPD input" ~count:60 (QCheck.int_range 1 40)
    (fun n ->
      let rng = Rng.create ~seed:(n * 7) in
      let a = Check.spd_random ~rng ~n in
      let l = Blas.cholesky a in
      Check.cholesky_residual ~a ~l < 1e-12)

let prop_gemm_linearity =
  QCheck.Test.make ~name:"gemm linear in alpha" ~count:60
    QCheck.(pair (int_range 1 12) (float_range (-3.) 3.))
    (fun (n, alpha) ->
      let rng = Rng.create ~seed:n in
      let a = Mat.init ~rows:n ~cols:n (fun _ _ -> Rng.gaussian rng) in
      let b = Mat.init ~rows:n ~cols:n (fun _ _ -> Rng.gaussian rng) in
      let c1 = Mat.create ~rows:n ~cols:n in
      Blas.gemm_nt ~alpha a b ~beta:0. c1;
      let c2 = Mat.create ~rows:n ~cols:n in
      Blas.gemm_nt ~alpha:1. a b ~beta:0. c2;
      Mat.scale c2 alpha;
      Mat.rel_diff c1 ~reference:c2 < 1e-12 || Mat.frobenius c2 = 0.)

(* --- differential: every kernel against the reference loop nest --------- *)

(* Bitwise agreement as [blas.mli] defines it, with the first differing
   entry in the failure message. *)
let same name got reference =
  match Oracle.first_mismatch got reference with
  | None -> true
  | Some (i, j, x, y) ->
    QCheck.Test.fail_reportf "%s: entry (%d, %d) is %h, reference %h" name i j x y

let alpha (s : Gen.shape_spec) = List.nth [ 1.; -1.; 0.5; 0.; 2.5; -0. ] (s.Gen.sseed mod 6)
let beta (s : Gen.shape_spec) = List.nth [ 1.; 0.; -1.; 3.; 0.25 ] (s.Gen.sseed / 6 mod 5)

(* A lower factor with special entries below the diagonal. *)
let factor (s : Gen.shape_spec) n =
  let l = Blas.cholesky (Gen.spd_of_spec { Gen.n; mseed = s.Gen.sseed }) in
  Gen.spoil_lower s l;
  l

let outcome f = match f () with () -> None | exception Blas.Not_positive_definite j -> Some j

let diff name ~count prop =
  QCheck.Test.make ~name ~count (Gen.shape_spec ()) prop

let prop_gemm_nt =
  diff "gemm_nt = reference" ~count:300 (fun s ->
      let a = Gen.operand s 0 ~rows:s.Gen.m ~cols:s.Gen.k
      and b = Gen.operand s 1 ~rows:s.Gen.n ~cols:s.Gen.k
      and c = Gen.operand s 2 ~rows:s.Gen.m ~cols:s.Gen.n in
      let c' = Mat.copy c in
      Blas.gemm_nt ~alpha:(alpha s) a b ~beta:(beta s) c;
      Oracle.Blas_ref.gemm_nt ~alpha:(alpha s) a b ~beta:(beta s) c';
      same "gemm_nt" c c')

let prop_gemm =
  diff "gemm (all transposes) = reference" ~count:200 (fun s ->
      List.for_all
        (fun (transa, transb) ->
          let m = s.Gen.m and n = s.Gen.n and k = s.Gen.k in
          let a = if transa then Gen.operand s 0 ~rows:k ~cols:m else Gen.operand s 0 ~rows:m ~cols:k
          and b = if transb then Gen.operand s 1 ~rows:n ~cols:k else Gen.operand s 1 ~rows:k ~cols:n
          and c = Gen.operand s 2 ~rows:m ~cols:n in
          let c' = Mat.copy c in
          Blas.gemm ~transa ~transb ~alpha:(alpha s) a b ~beta:(beta s) c;
          Oracle.Blas_ref.gemm ~transa ~transb ~alpha:(alpha s) a b ~beta:(beta s) c';
          same (Printf.sprintf "gemm transa=%b transb=%b" transa transb) c c')
        [ (false, false); (true, false); (false, true); (true, true) ])

let prop_syrk =
  diff "syrk_lower = reference" ~count:300 (fun s ->
      let a = Gen.operand s 0 ~rows:s.Gen.n ~cols:s.Gen.k
      and c = Gen.operand s 2 ~rows:s.Gen.n ~cols:s.Gen.n in
      let c' = Mat.copy c in
      Blas.syrk_lower ~alpha:(alpha s) a ~beta:(beta s) c;
      Oracle.Blas_ref.syrk_lower ~alpha:(alpha s) a ~beta:(beta s) c';
      same "syrk_lower" c c')

let prop_trsm_right =
  diff "trsm_right_lower_trans = reference" ~count:300 (fun s ->
      let l = factor s s.Gen.n and b = Gen.operand s 1 ~rows:s.Gen.m ~cols:s.Gen.n in
      let b' = Mat.copy b in
      Blas.trsm_right_lower_trans ~l b;
      Oracle.Blas_ref.trsm_right_lower_trans ~l b';
      same "trsm_right_lower_trans" b b')

let prop_trsm_left =
  diff "trsm_left_lower_notrans = reference" ~count:300 (fun s ->
      let l = factor s s.Gen.m and b = Gen.operand s 1 ~rows:s.Gen.m ~cols:s.Gen.n in
      let b' = Mat.copy b in
      Blas.trsm_left_lower_notrans ~l b;
      Oracle.Blas_ref.trsm_left_lower_notrans ~l b';
      same "trsm_left_lower_notrans" b b')

let prop_potrf =
  diff "potrf_lower = reference, also on failure" ~count:300 (fun s ->
      let n = s.Gen.n in
      let a = Gen.spd_of_spec { Gen.n; mseed = s.Gen.sseed } in
      (* Spoiled pivots make some inputs fail part-way through. *)
      Gen.spoil_lower s ~diagonal:true a;
      let a' = Mat.copy a in
      let r = outcome (fun () -> Blas.potrf_lower a)
      and r' = outcome (fun () -> Oracle.Blas_ref.potrf_lower a') in
      if r <> r' then QCheck.Test.fail_reportf "potrf outcome differs"
      else same "potrf_lower" a a')

let prop_trsv =
  diff "trsv_lower / trsv_lower_trans = reference" ~count:300 (fun s ->
      let n = s.Gen.n in
      let l = factor s n in
      let b = (Mat.to_arrays (Mat.transpose (Gen.operand s 4 ~rows:n ~cols:1))).(0) in
      let y = Blas.trsv_lower ~l b and y' = Oracle.Blas_ref.trsv_lower ~l b in
      let x = Blas.trsv_lower_trans ~l b and x' = Oracle.Blas_ref.trsv_lower_trans ~l b in
      let col u = Mat.init ~rows:n ~cols:1 (fun i _ -> u.(i)) in
      same "trsv_lower" (col y) (col y') && same "trsv_lower_trans" (col x) (col x'))

(* A matrix that is positive definite up to column j: both kernels raise
   at j, the columns before it hold the same factor, and column j onwards
   is exactly the input. *)
let test_potrf_failure_state () =
  let n = 12 in
  let base = Gen.spd_of_spec { Gen.n; mseed = 3 } in
  List.iter
    (fun (what, j, spoil) ->
      let a = Mat.copy base in
      spoil a;
      let input = Mat.copy a and a' = Mat.copy a in
      let r = outcome (fun () -> Blas.potrf_lower a)
      and r' = outcome (fun () -> Oracle.Blas_ref.potrf_lower a') in
      Alcotest.(check (option int)) (what ^ ": raises at j") (Some j) r;
      Alcotest.(check (option int)) (what ^ ": reference raises at j") (Some j) r';
      Alcotest.(check bool) (what ^ ": identical buffers") true (Oracle.first_mismatch a a' = None);
      let tail m = Mat.sub_view_copy m ~row:0 ~col:j ~rows:n ~cols:(n - j) in
      Alcotest.(check bool) (what ^ ": column j onwards untouched") true
        (Oracle.first_mismatch (tail a) (tail input) = None))
    [
      ("negative pivot", 5, fun a -> Mat.set a 5 5 (-1.));
      ("zero pivot", 0, fun a -> Mat.set a 0 0 0.);
      ("NaN below the diagonal", 7, fun a -> Mat.set a 7 3 Float.nan);
      ("last column", n - 1, fun a -> Mat.set a (n - 1) (n - 1) (-.Float.infinity));
    ]

let () =
  Alcotest.run "blas"
    [
      ( "kernels",
        [
          Alcotest.test_case "gemm_nt small" `Quick test_gemm_nt_small;
          Alcotest.test_case "alpha/beta" `Quick test_gemm_alpha_beta;
          Alcotest.test_case "gemm trans variants" `Quick test_gemm_trans_variants;
          Alcotest.test_case "gemm_nt = gemm transb" `Quick test_gemm_nt_consistent_with_gemm;
          Alcotest.test_case "syrk lower" `Quick test_syrk_lower;
          Alcotest.test_case "potrf identity" `Quick test_potrf_identity;
          Alcotest.test_case "potrf known 2x2" `Quick test_potrf_known;
          Alcotest.test_case "potrf residual" `Quick test_potrf_residual_random;
          Alcotest.test_case "potrf rejects indefinite" `Quick test_potrf_rejects_indefinite;
          Alcotest.test_case "trsm right lower trans" `Quick test_trsm;
          Alcotest.test_case "trsm left lower" `Quick test_trsm_left_lower;
          Alcotest.test_case "trsm left/right consistent" `Quick test_trsm_left_right_consistent;
          Alcotest.test_case "trsv roundtrip" `Quick test_trsv_roundtrip;
          Alcotest.test_case "log det" `Quick test_log_det;
          Alcotest.test_case "potrf failure state = reference" `Quick test_potrf_failure_state;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_gemm_nt; prop_gemm; prop_syrk; prop_trsm_right; prop_trsm_left; prop_potrf; prop_trsv ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_cholesky_roundtrip; prop_gemm_linearity ] );
    ]
