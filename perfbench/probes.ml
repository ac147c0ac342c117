(* Layer probes: each layer's public functions timed directly at the
   workload's shape (matrix order [n], tile size [nb], covariance,
   accuracy target).  They run in the traced run of every workload, after
   the measured phase, so a workload that bypasses a layer still reports
   that layer's speed at its own shape. *)

open Common
module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Blas_emul = Geomix_linalg.Blas_emul
module Fp = Geomix_precision.Fpformat
module Tiled = Geomix_tile.Tiled
module Pm = Geomix_core.Precision_map
module Comm_map = Geomix_core.Comm_map
module Chol = Geomix_core.Mp_cholesky
module Metrics = Geomix_obs.Metrics
module Profile = Geomix_obs.Profile
module Pool = Geomix_parallel.Pool
module Dag_exec = Geomix_parallel.Dag_exec
module Cholesky_dag = Geomix_runtime.Cholesky_dag
module Checksum = Geomix_integrity.Checksum
module Codec = Geomix_ooc.Codec
module Store = Geomix_ooc.Store
module Covariance = Geomix_geostat.Covariance
module Locations = Geomix_geostat.Locations
module Field = Geomix_geostat.Field
module Prediction = Geomix_geostat.Prediction
module Rng = Geomix_util.Rng
module P = Geomix_serve.Protocol
module Server = Geomix_serve.Server
module Cache = Geomix_serve.Cache

type shape = {
  n : int;
  nb : int;
  u_req : float;
  spec : P.spec;  (** the same problem as a service request *)
}

let counter snap name =
  match Metrics.find snap name with Some (Metrics.Counter c) -> c | _ -> 0

let hist snap name =
  match Metrics.find snap name with Some (Metrics.Histogram h) -> Some h | _ -> None

let cov_of_spec (s : P.spec) =
  let nugget = s.P.nugget and sigma2 = s.P.sigma2 and beta = s.P.beta in
  match s.P.family with
  | Covariance.Sqexp -> Covariance.sqexp ~nugget ~sigma2 ~beta ()
  | Covariance.Matern -> Covariance.matern ~nugget ~sigma2 ~beta ~nu:s.P.nu ()
  | Covariance.Powexp -> Covariance.powexp ~nugget ~sigma2 ~beta ~power:s.P.nu ()
  | Covariance.Spherical -> Covariance.spherical ~nugget ~sigma2 ~beta ()

(* The sites a request of this spec is served on. *)
let sites (s : P.spec) =
  Locations.morton_sort
    (Locations.jittered_grid_2d ~rng:(Rng.create ~seed:s.P.locs_seed) ~n:s.P.n)

(* Busy seconds per kernel class of one profiled factorization. *)
let busy_by_class prof =
  List.fold_left
    (fun acc (m : Profile.measure) ->
      let d = m.Profile.stop -. m.Profile.start in
      let prev = Option.value (List.assoc_opt m.Profile.cls acc) ~default:0. in
      (m.Profile.cls, prev +. d) :: List.remove_assoc m.Profile.cls acc)
    [] (Profile.measures prof)

let kernel_classes = [ "POTRF"; "TRSM"; "SYRK"; "GEMM" ]

(* {1 Kernels} *)

let kernels ~nb ~spd_tile =
  let rng = Rng.create ~seed:17 in
  let rand () = Mat.init ~rows:nb ~cols:nb (fun _ _ -> Rng.uniform rng ~lo:(-1.) ~hi:1.) in
  let a = rand () and b = rand () and c = rand () in
  let l = Blas.cholesky spd_tile in
  let work = Mat.copy b in
  let f = float_of_int nb in
  let gflops flops secs = flops /. secs /. 1e9 in
  let min_s = 0.02 in
  let gemm prec =
    let run =
      match prec with
      | Fp.Fp64 -> fun () -> Blas.gemm_nt ~alpha:(-1.) a b ~beta:1. c
      | p -> fun () -> Blas_emul.gemm_nt ~fidelity:Blas_emul.Boundary ~prec:p ~alpha:(-1.) a b ~beta:1. c
    in
    gflops (2. *. f *. f *. f) (rate_time ~min_s run)
  in
  (* TRSM and POTRF work in place, so each timed call first restores its
     operand (an nb² copy beside the nb³ kernel). *)
  let trsm prec =
    let solve =
      match prec with
      | Fp.Fp64 -> fun () -> Blas.trsm_right_lower_trans ~l work
      | p -> fun () -> Blas_emul.trsm_right_lower_trans ~fidelity:Blas_emul.Boundary ~prec:p ~l work
    in
    gflops (f *. f *. f) (rate_time ~min_s (fun () -> Mat.blit ~src:b ~dst:work; solve ()))
  in
  let syrk () =
    gflops (f *. f *. (f +. 1.))
      (rate_time ~min_s (fun () -> Blas.syrk_lower ~alpha:(-1.) a ~beta:1. c))
  in
  let potrf () =
    gflops (f *. f *. f /. 3.)
      (rate_time ~min_s (fun () -> Mat.blit ~src:spd_tile ~dst:work; Blas.potrf_lower work))
  in
  let u = "GFLOP/s" in
  [
    m ~source:"probe" "linalg.gemm_gflops.fp64" u (gemm Fp.Fp64);
    m ~source:"probe" "linalg.gemm_gflops.fp32" u (gemm Fp.Fp32);
    m ~source:"probe" "linalg.gemm_gflops.fp16_32" u (gemm Fp.Fp16_32);
    m ~source:"probe" "linalg.gemm_gflops.fp16" u (gemm Fp.Fp16);
    m ~source:"probe" "linalg.syrk_gflops.fp64" u (syrk ());
    m ~source:"probe" "linalg.trsm_gflops.fp64" u (trsm Fp.Fp64);
    m ~source:"probe" "linalg.trsm_gflops.fp32" u (trsm Fp.Fp32);
    m ~source:"probe" "linalg.potrf_gflops.fp64" u (potrf ());
  ]

(* {1 Byte-stream layers: rounding, hashing, codecs, the spill store} *)

let mbps bytes secs = float_of_int bytes /. secs /. 1e6

let byte_layers ~dir ~tile =
  let nb = Mat.rows tile in
  let bytes = 8 * nb * nb in
  let min_s = 0.01 in
  let round s = mbps bytes (rate_time ~min_s (fun () -> ignore (Mat.rounded s tile))) in
  let t32 = Mat.rounded Fp.S_fp32 tile in
  let enc = Codec.encode Fp.S_fp32 t32 in
  let encode = mbps bytes (rate_time ~min_s (fun () -> ignore (Codec.encode Fp.S_fp32 t32))) in
  let decode =
    mbps bytes
      (rate_time ~min_s (fun () -> ignore (Codec.decode Fp.S_fp32 ~rows:nb ~cols:nb enc)))
  in
  let hash = mbps bytes (rate_time ~min_s (fun () -> ignore (Checksum.hash tile))) in
  (* A one-tile budget: every put spills its predecessor (write, fsync,
     rename, verify), every acquire re-reads a spilled tile. *)
  let tiles = 8 in
  let spill_s, reread_s, spilled, reread =
    let sdir = Filename.concat dir "probe-store" in
    let st = Store.create ~budget:bytes ~dir:sdir () in
    let (), spill_s = time (fun () ->
        for k = 0 to tiles - 1 do Store.put st k (Mat.copy t32) done;
        Store.flush st)
    in
    let (), reread_s = time (fun () ->
        for k = 0 to tiles - 1 do
          ignore (Store.acquire st k);
          Store.release st k
        done)
    in
    let r = (spill_s, reread_s, Store.spilled_bytes st, Store.reread_bytes st) in
    rm_rf sdir;
    r
  in
  [
    m ~source:"probe" "precision.round_mbps.fp32" "MB/s" (round Fp.S_fp32);
    m ~source:"probe" "precision.round_mbps.fp16" "MB/s" (round Fp.S_fp16);
    m ~source:"probe" "integrity.hash_mbps" "MB/s" hash;
    m ~source:"probe" "ooc.encode_mbps" "MB/s" encode;
    m ~source:"probe" "ooc.decode_mbps" "MB/s" decode;
    m ~source:"probe" "ooc.spill_mbps" "MB/s" (mbps spilled spill_s);
    m ~source:"probe" "ooc.reread_mbps" "MB/s" (mbps reread reread_s);
  ]

(* {1 Framing}: one request frame and one reply frame written to and read
   back from a socket pair — the client side of a round trip without the
   server's work. *)

let frame_us (spec : P.spec) =
  let req = P.request_to_json { P.id = "probe"; priority = P.Normal; timeout_s = None;
                                payload = P.Likelihood spec } in
  let reply =
    P.frame_to_json
      (P.Reply { id = "probe"; footer = None;
                 reply = P.Predict_r { mean = Array.make 8 0.5; variance = Array.make 8 0.25;
                                       cache_hit = true } })
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let oa = Unix.out_channel_of_descr a and ib = Unix.in_channel_of_descr b in
  let ob = Unix.out_channel_of_descr b and ia = Unix.in_channel_of_descr a in
  let roundtrip () =
    P.write_frame oa req;
    ignore (P.read_frame ib);
    P.write_frame ob reply;
    ignore (P.read_frame ia)
  in
  let t = rate_time ~min_s:0.01 roundtrip in
  Unix.close a;
  Unix.close b;
  1e6 *. t

(* {1 DAG runtime}: empty task bodies on the workload's Cholesky DAG. *)

let task_overhead_us ~nt ~workers =
  let dag = Cholesky_dag.create ~nt in
  let num_tasks = Cholesky_dag.num_tasks dag in
  Pool.with_pool ~num_workers:workers (fun pool ->
      let run () =
        Dag_exec.run ~pool ~num_tasks ~in_degree:(Cholesky_dag.in_degree dag)
          ~successors:(Cholesky_dag.successors dag) ~execute:(fun _ -> ()) ()
      in
      1e6 *. rate_time ~min_s:0.01 run /. float_of_int num_tasks)

(* {1 The likelihood pipeline, one stage at a time} *)

type pipeline = {
  cov_build_s : float;
  pmap_s : float;
  cmap_s : float;
  factor_s : float;
  solve_s : float;
  busy : (string * float) list;  (** kernel class → busy s *)
  rounds : int;
  shipped : int;
  shipped_fp64 : int;
}

let pipeline ~cov ~locs ~nb ~u_req =
  let reps = 3 in
  let a, cov_build_s = median_time ~reps (fun () -> Covariance.build_tiled cov locs ~nb) in
  let pmap, pmap_s = median_time ~reps (fun () -> Pm.of_tiled ~u_req a) in
  let cmap, cmap_s = median_time ~reps (fun () -> Comm_map.compute pmap) in
  let runs =
    List.init reps (fun _ ->
        let work = Tiled.copy a in
        let prof = Profile.collector () in
        let obs = Metrics.create () in
        let report, dt = time (fun () -> Chol.factorize_robust ~profile:prof ~obs ~cmap ~pmap work) in
        (work, report, dt, busy_by_class prof, Metrics.snapshot obs))
  in
  let factor_s = Stats.median (List.map (fun (_, _, dt, _, _) -> dt) runs) in
  let work, report, _, busy, snap = List.hd runs in
  let z = Array.init (Tiled.n a) (fun i -> Float.of_int (i mod 7) -. 3.) in
  let (), solve_s =
    median_time ~reps (fun () ->
        ignore (Chol.solve_lower work z);
        ignore (Chol.log_det work))
  in
  {
    cov_build_s; pmap_s; cmap_s; factor_s; solve_s; busy;
    rounds = report.Chol.rounds;
    shipped = counter snap "cholesky.shipped_bytes";
    shipped_fp64 = counter snap "cholesky.shipped_bytes_fp64";
  }

let pipeline_metrics p =
  let source = "probe" in
  [
    m ~source "geostat.cov_build_ms" "ms" (ms p.cov_build_s);
    m ~source "core.pmap_ms" "ms" (ms p.pmap_s);
    m ~source "core.cmap_ms" "ms" (ms p.cmap_s);
    m ~source "core.factor_ms" "ms" (ms p.factor_s);
    m ~source "core.solve_ms" "ms" (ms p.solve_s);
    m ~source "core.rounds_per_factor" "count" (float_of_int p.rounds);
    m ~source "core.shipped_bytes" "B" (float_of_int p.shipped);
    m ~source "core.shipped_bytes_fp64" "B" (float_of_int p.shipped_fp64);
  ]
  @ List.map
      (fun cls ->
        m ~source ("linalg.busy_ms." ^ String.lowercase_ascii cls) "ms"
          (ms (Option.value (List.assoc_opt cls p.busy) ~default:0.)))
      kernel_classes

(* {1 The service path}: a handful of traced requests on a private
   server at this shape — the per-request queue and busy time from the
   reply footers, and the pool's own queue-wait and busy accounting. *)

type service = {
  queue_s : float;  (** summed task queue wait per request *)
  busy_s : float;  (** summed task run time per request *)
  queue_wait_mean_s : float;  (** per task *)
  worker_busy_frac : float;
}

let service_of ~snap ~elapsed ~workers (footers : Geomix_obs.Span.summary list) =
  let run_sum = match hist snap "pool.run_s" with Some h -> h.Metrics.sum | None -> 0. in
  let queue_mean =
    match hist snap "pool.queue_wait_s" with
    | Some h when h.Metrics.count > 0 -> h.Metrics.sum /. float_of_int h.Metrics.count
    | _ -> 0.
  in
  let per f = if footers = [] then 0. else Stats.median (List.map f footers) in
  {
    queue_s = per (fun s -> s.Geomix_obs.Span.s_queue_s);
    busy_s = per (fun s -> s.Geomix_obs.Span.s_busy_s);
    queue_wait_mean_s = queue_mean;
    worker_busy_frac = run_sum /. (float_of_int (max 1 workers) *. elapsed);
  }

let service_probe (spec : P.spec) =
  let obs = Metrics.create () in
  let pool = Pool.create ~obs () in
  let server = Server.create ~obs ~trace_sample:1.0 ~pool () in
  let footers, elapsed =
    time (fun () ->
        List.filter_map
          (fun i ->
            let req = { P.id = Printf.sprintf "probe-%d" i; priority = P.Normal; timeout_s = None;
                        payload = P.Likelihood { spec with P.data_seed = i } } in
            match Server.handle_traced server req with
            | _, Some f -> Some f.P.f_span
            | _, None -> None)
          [ 1; 2; 3 ])
  in
  let workers = Pool.num_workers pool in
  Pool.shutdown pool;
  service_of ~snap:(Metrics.snapshot obs) ~elapsed ~workers footers

let service_metrics ?(source = "probe") s =
  [
    m ~source "serve.queue_ms" "ms" (ms s.queue_s);
    m ~source "serve.busy_ms" "ms" (ms s.busy_s);
    m ~source "parallel.queue_wait_ms_mean" "ms" (ms s.queue_wait_mean_s);
    m ~source "parallel.worker_busy_frac" "frac" s.worker_busy_frac;
  ]

(* {1 Everything at one shape} *)

let geostat ~cov ~locs =
  let (_dense : Mat.t), chol_s =
    median_time ~reps:3 (fun () -> Blas.cholesky (Covariance.build_dense cov locs))
  in
  let z, synth_s =
    median_time ~reps:3 (fun () -> Field.synthesize ~rng:(Rng.create ~seed:5) ~cov locs)
  in
  let new_locs = Locations.uniform_2d ~rng:(Rng.create ~seed:6) ~n:8 in
  let _, predict_s =
    median_time ~reps:3 (fun () -> Prediction.predict ~cov ~obs_locs:locs ~z ~new_locs)
  in
  [
    m ~source:"probe" "linalg.dense_chol_ms" "ms" (ms chol_s);
    m ~source:"probe" "geostat.synth_ms" "ms" (ms synth_s);
    m ~source:"probe" "geostat.predict_ms" "ms" (ms predict_s);
  ]

let build_ms (spec : P.spec) =
  let key = Cache.key_of_spec spec in
  ms (snd (median_time ~reps:3 (fun () -> Server.build_artifact key)))

(* The probes common to every workload.  [pipeline] and [service] are
   left to the caller, which may measure them live instead. *)
let common ~dir ~(shape : shape) ~workers =
  let cov = cov_of_spec shape.spec in
  let locs = sites shape.spec in
  let a = Covariance.build_tiled cov locs ~nb:shape.nb in
  let tile = Mat.copy (Tiled.tile a 0 0) in
  kernels ~nb:shape.nb ~spd_tile:tile
  @ byte_layers ~dir ~tile
  @ geostat ~cov ~locs
  @ [
      m ~source:"probe" "serve.frame_us" "us" (frame_us shape.spec);
      m ~source:"probe" "serve.build_ms" "ms" (build_ms shape.spec);
      m ~source:"probe" "parallel.task_overhead_us" "us"
        (task_overhead_us ~nt:(Tiled.nt a) ~workers);
    ]
