(* ooc_factor: repeated out-of-core factorizations of one covariance
   ([Ooc_cholesky.factorize]) under a residency budget of a few tiles,
   each from a fresh store directory on the checkout's disk, with a
   checkpoint after every column.  The only workload that writes: spills,
   fsyncs, checkpoints and re-reads run beside the same kernels. *)

open Common
module Tiled = Geomix_tile.Tiled
module Pm = Geomix_core.Precision_map
module Chol = Geomix_core.Mp_cholesky
module Ooc = Geomix_core.Ooc_cholesky
module Store = Geomix_ooc.Store
module Metrics = Geomix_obs.Metrics
module Rng = Geomix_util.Rng
module Covariance = Geomix_geostat.Covariance
module Locations = Geomix_geostat.Locations
module Field = Geomix_geostat.Field
module Likelihood = Geomix_geostat.Likelihood
module P = Geomix_serve.Protocol

let nb = 64
let nt = 8
let n = nb * nt
let budget_tiles = 8
let budget = budget_tiles * nb * nb * 8
let u_req = 1e-4
let checkpoint_every = 1

type setup = { a : Tiled.t; pmap : Pm.t; spec : P.spec; reference : Tiled.t }

let setup ~seed =
  let spec =
    { P.n; nb; u_req; family = Covariance.Matern; sigma2 = 1.0; beta = 0.1; nu = 0.5;
      nugget = Covariance.default_nugget; locs_seed = 2000 + seed; data_seed = seed }
  in
  let cov = Probes.cov_of_spec spec in
  let a = Covariance.build_tiled cov (Probes.sites spec) ~nb in
  let pmap = Pm.of_tiled ~u_req a in
  (* The in-core factor the output check compares against. *)
  let reference = Tiled.copy a in
  Chol.factorize ~pmap reference;
  { a; pmap; spec; reference }

let setup_once ~seed ~dir:_ = snd (time (fun () -> setup ~seed))

type counts = { spills : int; loads : int; checkpoints : int; spilled : int; spilled_fp64 : int; reread : int }

let counts st =
  { spills = Store.spills st; loads = Store.loads st; checkpoints = Store.checkpoints st;
    spilled = Store.spilled_bytes st; spilled_fp64 = Store.spilled_bytes_fp64 st;
    reread = Store.reread_bytes st }

(* One op: a fresh store, one factorization.  The input copy is made
   before the clock starts; the store directory is removed after it
   stops (inside the measured phase). *)
let factor_once ?tr ~op ~dir s i =
  let work = Tiled.copy s.a in
  let sdir = Filename.concat dir (Printf.sprintf "store-%d" i) in
  let factor st = Ooc.factorize ~checkpoint_every ~store:st ~pmap:s.pmap work in
  let start = now () in
  let st =
    match tr with
    | None ->
      let st = Store.create ~budget ~dir:sdir () in
      factor st;
      st
    | Some tr ->
      let root = Spans.reserve tr in
      let st = Spans.span tr ~op ~parent:root "ooc.store_create" (fun () -> Store.create ~budget ~dir:sdir ()) in
      Spans.span tr ~op ~parent:root "core.ooc_factorize" (fun () -> factor st);
      Spans.close tr ~id:root ~op ~parent:(-1) ~name:"op" ~start ~stop:(now ());
      st
  in
  let dt = now () -. start in
  rm_rf sdir;
  (work, counts st, dt)

(* The ops of one phase (measured or traced), tallied apart so traced ops
   never enter the measured counts. *)
type phase = {
  mutable attempted : int;
  mutable failed : int;
  mutable lat : (int * float) list;  (** op index, wall s; newest first *)
  mutable log : (float * float * string) list;
  mutable seen : counts list;  (** distinct per-op counts *)
  mutable last : Tiled.t option;
}

let phase () = { attempted = 0; failed = 0; lat = []; log = []; seen = []; last = None }

let op ?tr ~dir s ph i =
  ph.attempted <- ph.attempted + 1;
  match factor_once ?tr ~op:i ~dir s i with
  | work, c, dt ->
    ph.lat <- (i, dt) :: ph.lat;
    ph.log <- (now () -. dt, dt, "factor") :: ph.log;
    if not (List.mem c ph.seen) then ph.seen <- c :: ph.seen;
    ph.last <- Some work
  | exception e ->
    ph.failed <- ph.failed + 1;
    prerr_endline ("ooc_factor: op failed: " ^ Printexc.to_string e)

let run ~seed ~seconds ~trace ~dir =
  let s, setup_first = time (fun () -> setup ~seed) in
  let cold_before = Workload.cold_setups ~workload:"ooc_factor" ~seed ~reps:Workload.cold_reps in
  let live = phase () in
  let t_run = now () in
  let measured = if trace then seconds /. 2. else seconds in
  let elapsed = Workload.closed_loop ~budget:measured (fun i -> op ~dir s live i) in
  let untraced_lat = List.map snd live.lat in
  let setup_ts =
    (setup_first :: cold_before)
    @ Workload.cold_setups ~workload:"ooc_factor" ~seed ~reps:Workload.cold_reps
  in
  let setup_s = Stats.median setup_ts in
  write_ops ~workload:"ooc_factor" ~seed ~t0:t_run (List.rev live.log);
  (* Output check, once per run: the last factor against the in-core
     factorization under the same precision map, made during set-up. *)
  let bitwise =
    match live.last with Some w -> Tiled.rel_diff w ~reference:s.reference = 0. | None -> false
  in
  let sorted = Stats.sorted untraced_lat in
  let ops = Array.length sorted in
  let c =
    match live.seen with
    | c :: _ -> c
    | [] -> { spills = 0; loads = 0; checkpoints = 0; spilled = 0; spilled_fp64 = 0; reread = 0 }
  in
  let motion_frac = float_of_int c.spilled /. float_of_int (max 1 c.spilled_fp64) in
  let checks =
    [
      (Printf.sprintf "at least %d ops, so 10 lie beyond p90" Workload.min_ops, trace || ops >= Workload.min_ops);
      ("quantiles within [min, max] and monotone", Stats.quantiles_sane sorted [ 0.5; 0.9 ]);
      ("every op completed", live.failed = 0);
      ("out-of-core factor bitwise equal to in-core Mp_cholesky.factorize", bitwise);
      ("pin: every op has the same spill, load and checkpoint counts", List.length live.seen = 1);
      ("pin: spills and re-reads both happen", c.spills > 0 && c.loads > 0);
      ("pin: one checkpoint per column plus entry and finish", c.checkpoints = nt + 2);
    ]
  in
  let p50 = Stats.quantile_sorted sorted 0.5 and p90 = Stats.quantile_sorted sorted 0.9 in
  let notes =
    [
      Workload.setup_note setup_ts;
      Printf.sprintf "n=%d nb=%d (%d tiles per side), budget %d tiles, checkpoint every %d column"
        n nb nt budget_tiles checkpoint_every;
      Printf.sprintf "latency samples: %d (p90 has %d beyond it)" ops (Stats.beyond sorted 0.9);
      Printf.sprintf "fail_frac = %d / %d attempted" live.failed live.attempted;
      Printf.sprintf "per op: %d spills, %d loads, %d checkpoints, %d B spilled (%d B FP64-equivalent), %d B re-read"
        c.spills c.loads c.checkpoints c.spilled c.spilled_fp64 c.reread;
    ]
  in
  let e2e =
    [
      m "op_p50_ms" "ms" (ms p50);
      m "op_p90_ms" "ms" (ms p90);
      m "ops_per_s" "1/s" (float_of_int ops /. elapsed);
      m "ok_frac" "frac" (float_of_int (live.attempted - live.failed) /. float_of_int (max 1 live.attempted));
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" (peak_rss_mb ());
      m ~source:"computed" "motion_frac" "frac" motion_frac;
    ]
  in
  let layers, trace_checks, trace_notes =
    if not trace then ([], [], [])
    else begin
      let tr = Spans.create () in
      let traced = phase () in
      let _ = Workload.closed_loop ~budget:(seconds /. 2.) (fun i -> op ~tr ~dir s traced i) in
      let traced_lat = List.map snd traced.lat in
      let a = Spans.analyze ~walls:traced.lat tr in
      Spans.write tr ~path:(Filename.concat out_root (Printf.sprintf "spans-ooc_factor-seed%d.jsonl" seed));
      let cov = Probes.cov_of_spec s.spec and locs = Probes.sites s.spec in
      let pipe = Probes.pipeline ~cov ~locs ~nb ~u_req in
      let common = Probes.common ~dir ~shape:{ Probes.n; nb; u_req; spec = s.spec } ~workers:0 in
      let rate name =
        (List.find (fun (mt : metric) -> mt.name = name) common).value *. 1e6
      in
      let io_s_est =
        (float_of_int c.spilled /. rate "ooc.spill_mbps") +. (float_of_int c.reread /. rate "ooc.reread_mbps")
      in
      let relerr =
        let z = Field.synthesize ~rng:(Rng.create ~seed) ~cov locs in
        let work = s.reference in
        let y = Chol.solve_lower work z in
        let ev =
          Likelihood.assemble ~n ~log_det:(Chol.log_det work)
            ~quad_form:(Array.fold_left (fun acc v -> acc +. (v *. v)) 0. y)
            ~precision_fractions:[] ()
        in
        let exact = Likelihood.evaluate_robust Likelihood.Exact ~cov ~locs ~z in
        Float.abs (ev.Likelihood.loglik -. exact.Likelihood.loglik) /. Float.abs exact.Likelihood.loglik
      in
      let layers =
        common
        @ Probes.pipeline_metrics pipe
        @ Probes.service_metrics (Probes.service_probe s.spec)
        @ [
            m ~source:"computed" "geostat.loglik_relerr" "frac" relerr;
            m "ooc.spill_bytes" "B" (float_of_int c.spilled);
            m "ooc.reread_frac" "frac" (float_of_int c.reread /. float_of_int (max 1 c.spilled));
            m "ooc.checkpoints" "count" (float_of_int c.checkpoints);
            m ~source:"computed" "ooc.io_s_est" "s" io_s_est;
            m ~source:"trace" "obs.trace_overhead_frac" "frac"
              ((Stats.median traced_lat /. Stats.median untraced_lat) -. 1.);
          ]
        @ Workload.bypassed_serve @ Workload.share_metrics a
      in
      ( layers,
        [ Workload.relerr_check relerr;
          ("every traced op completed with the measured ops' counts",
           traced.failed = 0 && traced.seen = live.seen);
          ("spans nest in their parents and self times add up to each op's separately timed wall",
           a.Spans.problems = []) ],
        Workload.share_notes a
        @ [ Printf.sprintf "computed I/O estimate: %.1f ms of a %.1f ms op (probe rates x per-op bytes)"
              (ms io_s_est) (ms p50) ]
        @ List.map (fun p -> "trace problem: " ^ p) a.Spans.problems )
    end
  in
  { attempted = live.attempted; failed = live.failed; checks = checks @ trace_checks; e2e; layers;
    notes = notes @ trace_notes }
