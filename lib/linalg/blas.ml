(* Every kernel indexes the column-major buffer directly: entry (i, j) of an
   [r]-row matrix is [d.{i + j·r}], and the column offset [j·r] is hoisted
   out of the inner loop.  Each output element still accumulates its terms
   in exactly the order of the textbook loops (the [Oracle] module of
   geomix_verify keeps those as the reference), so results are bitwise
   identical to them; the [x <> 0.] skips sit where they always did,
   because they decide how ±0, infinities and NaNs propagate. *)

module A = Bigarray.Array1

exception Not_positive_definite of int

(* [c.{co + i} ← c.{co + i} + a.{ao + i}·s] for i < len. *)
let axpy_col (c : Mat.buf) co (a : Mat.buf) ao s len =
  for i = 0 to len - 1 do
    A.unsafe_set c (co + i) (A.unsafe_get c (co + i) +. (A.unsafe_get a (ao + i) *. s))
  done

(* C(:, j..j+3) += A(:, p)·(b0, b1, b2, b3) over rows [lo, hi): one load
   of A(i, p) feeds four columns of C. *)
let axpy4 (c : Mat.buf) c0 c1 c2 c3 (a : Mat.buf) ao b0 b1 b2 b3 lo hi =
  for i = lo to hi - 1 do
    let x = A.unsafe_get a (ao + i) in
    A.unsafe_set c (c0 + i) (A.unsafe_get c (c0 + i) +. (x *. b0));
    A.unsafe_set c (c1 + i) (A.unsafe_get c (c1 + i) +. (x *. b1));
    A.unsafe_set c (c2 + i) (A.unsafe_get c (c2 + i) +. (x *. b2));
    A.unsafe_set c (c3 + i) (A.unsafe_get c (c3 + i) +. (x *. b3))
  done

(* The register tile shared by GEMM and SYRK.  Columns j0..j0+3 of C
   (column q at [c0 + q·ldc]) take C(i, j0+q) += A(i, p)·s_q(p) for p
   ascending, where A(:, p) starts at [p·lda] and s_q(p) = α·B(j0+q, p) is
   read at [bo + q + p·ldb].  Rows run over [lo, hi), or over [lo + q, hi)
   when [tri] (a SYRK's lower triangle: the first three columns then have
   a short head above the four-wide body).  When a column's scalar is zero
   the four columns go one at a time, and that column skips p as the
   one-column loop does. *)
let panel4 ~alpha ~tri (cd : Mat.buf) c0 ldc (ad : Mat.buf) lda (bd : Mat.buf) bo ldb k lo hi =
  let c1 = c0 + ldc in
  let c2 = c1 + ldc in
  let c3 = c2 + ldc in
  let body = if tri then lo + 3 else lo in
  for p = 0 to k - 1 do
    let ao = p * lda and bp = bo + (p * ldb) in
    let s0 = alpha *. A.unsafe_get bd bp
    and s1 = alpha *. A.unsafe_get bd (bp + 1)
    and s2 = alpha *. A.unsafe_get bd (bp + 2)
    and s3 = alpha *. A.unsafe_get bd (bp + 3) in
    if s0 <> 0. && s1 <> 0. && s2 <> 0. && s3 <> 0. then begin
      if tri then begin
        axpy_col cd (c0 + lo) ad (ao + lo) s0 3;
        axpy_col cd (c1 + lo + 1) ad (ao + lo + 1) s1 2;
        axpy_col cd (c2 + lo + 2) ad (ao + lo + 2) s2 1
      end;
      axpy4 cd c0 c1 c2 c3 ad ao s0 s1 s2 s3 body hi
    end
    else begin
      let col c q s =
        if s <> 0. then begin
          let r = if tri then lo + q else lo in
          axpy_col cd (c + r) ad (ao + r) s (hi - r)
        end
      in
      col c0 0 s0;
      col c1 1 s1;
      col c2 2 s2;
      col c3 3 s3
    end
  done

let gemm_nt ~alpha a b ~beta c =
  let m = Mat.rows a and k = Mat.cols a and n = Mat.rows b in
  assert (Mat.cols b = k);
  assert (Mat.rows c = m && Mat.cols c = n);
  if beta <> 1. then Mat.scale c beta;
  let ad = Mat.data a and bd = Mat.data b and cd = Mat.data c in
  (* B(j, p) lives at j + p·n. *)
  let j = ref 0 in
  while !j + 3 < n do
    panel4 ~alpha ~tri:false cd (!j * m) m ad m bd !j n k 0 m;
    j := !j + 4
  done;
  for j = !j to n - 1 do
    for p = 0 to k - 1 do
      let bjp = alpha *. A.unsafe_get bd (j + (p * n)) in
      if bjp <> 0. then axpy_col cd (j * m) ad (p * m) bjp m
    done
  done

let gemm ?(transa = false) ?(transb = false) ~alpha a b ~beta c =
  let m = if transa then Mat.cols a else Mat.rows a in
  let k = if transa then Mat.rows a else Mat.cols a in
  let n = if transb then Mat.rows b else Mat.cols b in
  assert ((if transb then Mat.cols b else Mat.rows b) = k);
  assert (Mat.rows c = m && Mat.cols c = n);
  if beta <> 1. then Mat.scale c beta;
  let ad = Mat.data a and bd = Mat.data b and cd = Mat.data c in
  let ra = Mat.rows a and rb = Mat.rows b in
  for j = 0 to n - 1 do
    let co = j * m in
    for p = 0 to k - 1 do
      let bpj = alpha *. A.unsafe_get bd (if transb then j + (p * rb) else p + (j * rb)) in
      if bpj <> 0. then
        if transa then
          (* op(A)(i, p) = A(p, i): a stride-[ra] walk along row p. *)
          for i = 0 to m - 1 do
            A.unsafe_set cd (co + i)
              (A.unsafe_get cd (co + i) +. (A.unsafe_get ad (p + (i * ra)) *. bpj))
          done
        else axpy_col cd co ad (p * ra) bpj m
    done
  done

let syrk_lower ~alpha a ~beta c =
  let n = Mat.rows a and k = Mat.cols a in
  assert (Mat.rows c = n && Mat.cols c = n);
  let ad = Mat.data a and cd = Mat.data c in
  if beta <> 1. then
    for j = 0 to n - 1 do
      let co = j * n in
      for i = j to n - 1 do
        A.unsafe_set cd (co + i) (beta *. A.unsafe_get cd (co + i))
      done
    done;
  (* A(j, p) lives at j + p·n; column j of C is updated from row j down. *)
  let j = ref 0 in
  while !j + 3 < n do
    panel4 ~alpha ~tri:true cd (!j * n) n ad n ad !j n k !j n;
    j := !j + 4
  done;
  for j = !j to n - 1 do
    for p = 0 to k - 1 do
      let ajp = alpha *. A.unsafe_get ad (j + (p * n)) in
      if ajp <> 0. then axpy_col cd ((j * n) + j) ad ((p * n) + j) ajp (n - j)
    done
  done

let trsm_right_lower_trans ~l b =
  let n = Mat.cols b and m = Mat.rows b in
  assert (Mat.rows l = n && Mat.cols l = n);
  let ld = Mat.data l and bd = Mat.data b in
  (* Solve X·Lᵀ = B column block by column block:
     X(:,j) = (B(:,j) − Σ_{p<j} X(:,p)·L(j,p)) / L(j,j). *)
  let sub1 bj p ljp =
    if ljp <> 0. then begin
      let bp = p * m in
      for i = 0 to m - 1 do
        A.unsafe_set bd (bj + i) (A.unsafe_get bd (bj + i) -. (A.unsafe_get bd (bp + i) *. ljp))
      done
    end
  in
  for j = 0 to n - 1 do
    let bj = j * m in
    (* Four earlier columns per pass over column j when all four L(j,p)
       are nonzero; otherwise one at a time with the skips. *)
    let p = ref 0 in
    while !p + 3 < j do
      let p0 = !p in
      let l0 = A.unsafe_get ld (j + (p0 * n))
      and l1 = A.unsafe_get ld (j + ((p0 + 1) * n))
      and l2 = A.unsafe_get ld (j + ((p0 + 2) * n))
      and l3 = A.unsafe_get ld (j + ((p0 + 3) * n)) in
      if l0 <> 0. && l1 <> 0. && l2 <> 0. && l3 <> 0. then begin
        let o0 = p0 * m in
        let o1 = o0 + m and o2 = o0 + (2 * m) and o3 = o0 + (3 * m) in
        for i = 0 to m - 1 do
          A.unsafe_set bd (bj + i)
            (A.unsafe_get bd (bj + i)
            -. (A.unsafe_get bd (o0 + i) *. l0)
            -. (A.unsafe_get bd (o1 + i) *. l1)
            -. (A.unsafe_get bd (o2 + i) *. l2)
            -. (A.unsafe_get bd (o3 + i) *. l3))
        done
      end
      else begin
        sub1 bj p0 l0;
        sub1 bj (p0 + 1) l1;
        sub1 bj (p0 + 2) l2;
        sub1 bj (p0 + 3) l3
      end;
      p := p0 + 4
    done;
    for p = !p to j - 1 do
      sub1 bj p (A.unsafe_get ld (j + (p * n)))
    done;
    let d = A.unsafe_get ld (j + (j * n)) in
    for i = 0 to m - 1 do
      A.unsafe_set bd (bj + i) (A.unsafe_get bd (bj + i) /. d)
    done
  done

let trsm_left_lower_notrans ~l b =
  let m = Mat.rows b and n = Mat.cols b in
  assert (Mat.rows l = m && Mat.cols l = m);
  let ld = Mat.data l and bd = Mat.data b in
  (* Forward substitution down each column of B, column-oriented: once
     X(p, j) is final it is subtracted from every later row, so each
     X(i, j) still starts at B(i, j) and loses L(i, p)·X(p, j) for p
     ascending — the order of the row-oriented dot product. *)
  for j = 0 to n - 1 do
    let bj = j * m in
    for p = 0 to m - 1 do
      let lp = p * m in
      let x = A.unsafe_get bd (bj + p) /. A.unsafe_get ld (lp + p) in
      A.unsafe_set bd (bj + p) x;
      for i = p + 1 to m - 1 do
        A.unsafe_set bd (bj + i) (A.unsafe_get bd (bj + i) -. (A.unsafe_get ld (lp + i) *. x))
      done
    done
  done

let potrf_lower a =
  let n = Mat.rows a in
  assert (Mat.cols a = n);
  let d = Mat.data a in
  (* Left-looking, one column at a time.  Column j first takes its pivot
     A(j,j) − Σ_{p<j} A(j,p)², and only when that is positive is the column
     touched: a failing pivot leaves column j and everything right of it
     as it was.  The rest of the column then accumulates
     A(i,j) − A(i,p)·A(j,p) for p ascending from contiguous reads of
     column p, four columns per pass over column j. *)
  for j = 0 to n - 1 do
    let cj = j * n in
    let s = ref (A.unsafe_get d (cj + j)) in
    for p = 0 to j - 1 do
      let x = A.unsafe_get d (j + (p * n)) in
      s := !s -. (x *. x)
    done;
    if not (!s > 0.) then raise (Not_positive_definite j);
    let piv = sqrt !s in
    A.unsafe_set d (cj + j) piv;
    let p = ref 0 in
    while !p + 3 < j do
      let p0 = !p in
      let o0 = p0 * n in
      let o1 = o0 + n and o2 = o0 + (2 * n) and o3 = o0 + (3 * n) in
      let x0 = A.unsafe_get d (o0 + j)
      and x1 = A.unsafe_get d (o1 + j)
      and x2 = A.unsafe_get d (o2 + j)
      and x3 = A.unsafe_get d (o3 + j) in
      for i = j + 1 to n - 1 do
        A.unsafe_set d (cj + i)
          (A.unsafe_get d (cj + i)
          -. (A.unsafe_get d (o0 + i) *. x0)
          -. (A.unsafe_get d (o1 + i) *. x1)
          -. (A.unsafe_get d (o2 + i) *. x2)
          -. (A.unsafe_get d (o3 + i) *. x3))
      done;
      p := p0 + 4
    done;
    for p = !p to j - 1 do
      let o = p * n in
      let x = A.unsafe_get d (o + j) in
      for i = j + 1 to n - 1 do
        A.unsafe_set d (cj + i) (A.unsafe_get d (cj + i) -. (A.unsafe_get d (o + i) *. x))
      done
    done;
    for i = j + 1 to n - 1 do
      A.unsafe_set d (cj + i) (A.unsafe_get d (cj + i) /. piv)
    done
  done

let trsv_lower ~l b =
  let n = Mat.rows l in
  assert (Array.length b = n);
  let ld = Mat.data l in
  let y = Array.copy b in
  (* Column-oriented: y(p) is final once divided, then leaves every later
     entry — the same per-entry order as the row-oriented dot product. *)
  for p = 0 to n - 1 do
    let lp = p * n in
    let yp = y.(p) /. A.unsafe_get ld (lp + p) in
    y.(p) <- yp;
    for i = p + 1 to n - 1 do
      Array.unsafe_set y i (Array.unsafe_get y i -. (A.unsafe_get ld (lp + i) *. yp))
    done
  done;
  y

let trsv_lower_trans ~l b =
  let n = Mat.rows l in
  assert (Array.length b = n);
  let ld = Mat.data l in
  let x = Array.copy b in
  for i = n - 1 downto 0 do
    let li = i * n in
    let s = ref x.(i) in
    for p = i + 1 to n - 1 do
      s := !s -. (A.unsafe_get ld (li + p) *. Array.unsafe_get x p)
    done;
    x.(i) <- !s /. A.unsafe_get ld (li + i)
  done;
  x

let cholesky a =
  let l = Mat.copy a in
  potrf_lower l;
  Mat.zero_upper l;
  l

let log_det_from_chol l =
  let n = Mat.rows l in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. log (Mat.unsafe_get l i i)
  done;
  2. *. !acc
