(* serve_mix: an in-process model service ([Server.serve_unix] on a Unix
   socket) driven by two closed-loop client connections, each walking its
   own seeded request sequence.  Request time is split across framing, the
   cache, dense FP64 synthesis and prediction, escalation rounds and a
   small-tile task DAG. *)

open Common
module Metrics = Geomix_obs.Metrics
module Pool = Geomix_parallel.Pool
module Server = Geomix_serve.Server
module Cache = Geomix_serve.Cache
module P = Geomix_serve.Protocol
module Retry = Geomix_fault.Retry
module Covariance = Geomix_geostat.Covariance
module Rng = Geomix_util.Rng

let n = 256
let clients = 2

(* {1 The request mix}

   The mix is the repository's existing serve load, bench/b_serve's
   [request_for]: the kind by slot (every 5th request a Monte-Carlo batch
   of 4, every 7th a kriging prediction, the rest likelihoods), the shape
   by (client + slot) mod 4 over b_serve's four shapes, the priority by
   slot mod 3.  One of those shapes always escalates (sqexp, beta 0.2,
   u_req 1e-4); here it is at nb 16, where it takes six [factorize_robust]
   rounds and its escalation evicts its cache entry every time, so a
   quarter of the requests carry escalation rounds, as in b_serve.

   The one addition is fresh shapes: every 11th request asks for a shape
   never seen before (a cache miss) in place of its rotation shape.  11 is
   the smallest period coprime to the rule's other cycles (3, 4, 5 and 7),
   so fresh shapes fall evenly on every kind, shape and priority.  No
   record of real traffic exists; these shares are a synthetic choice. *)

type cls = Hot | Escalating | Fresh

let cls_name = function Hot -> "hot" | Escalating -> "escalating" | Fresh -> "fresh"

let classes = [ Hot; Escalating; Fresh ]
let op_names = [ "likelihood"; "mc_batch"; "predict" ]
let fresh_every = 11

(* Requests whose kinds repeat: lcm of the Monte-Carlo and prediction
   cycles.  The reference check re-serves this many of client 0's. *)
let period = 35

let spec ~family ~nb ~u_req ~sigma2 ~beta ~nu ~locs_seed =
  { P.n; nb; u_req; family; sigma2; beta; nu; nugget = Covariance.default_nugget;
    locs_seed; data_seed = 0 }

(* b_serve's shapes, in its order; the first two share sites, as do the
   last two.  Index 1 is the escalating one. *)
let escalating_index = 1

let shapes ~seed =
  let a = (seed * 100) + 4 and b = (seed * 100) + 7 in
  [|
    spec ~family:Covariance.Sqexp ~nb:32 ~u_req:1e-6 ~sigma2:1.0 ~beta:0.1 ~nu:0.5 ~locs_seed:a;
    spec ~family:Covariance.Sqexp ~nb:16 ~u_req:1e-4 ~sigma2:1.0 ~beta:0.2 ~nu:0.5 ~locs_seed:a;
    spec ~family:Covariance.Matern ~nb:32 ~u_req:1e-6 ~sigma2:1.0 ~beta:0.1 ~nu:0.5 ~locs_seed:b;
    spec ~family:Covariance.Powexp ~nb:32 ~u_req:1e-8 ~sigma2:1.5 ~beta:0.15 ~nu:1.0 ~locs_seed:b;
  |]

let hot_shapes ~seed =
  List.filteri (fun i _ -> i <> escalating_index) (Array.to_list (shapes ~seed))

(* Client [c]'s request at [slot]: deterministic in (seed, c, slot). *)
let request ~seed ~client slot =
  let data_seed = (seed * 1_000_000) + (client * 100_000) + slot in
  let cls, shape =
    if slot mod fresh_every = fresh_every - 1 then
      let beta = 0.08 +. (0.04 *. Rng.float (Rng.create ~seed:data_seed)) in
      (Fresh,
       spec ~family:Covariance.Matern ~nb:32 ~u_req:1e-6 ~sigma2:1.0 ~beta ~nu:0.5
         ~locs_seed:(data_seed + 7))
    else
      let k = (client + slot) mod 4 in
      ((if k = escalating_index then Escalating else Hot), (shapes ~seed).(k))
  in
  let spec = { shape with P.data_seed } in
  let priority = match slot mod 3 with 0 -> P.High | 1 -> P.Normal | _ -> P.Low in
  let payload =
    if slot mod 5 = 4 then P.Mc_batch { spec; replicates = 4 }
    else if slot mod 7 = 6 then P.Predict { spec; n_new = 8; pred_seed = data_seed }
    else P.Likelihood spec
  in
  (cls, { P.id = Printf.sprintf "c%d-%d" client slot; priority; timeout_s = None; payload })

(* {1 Client} *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let rec connect_retry path attempts =
  match connect path with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when attempts > 1 ->
    Unix.sleepf 0.02;
    connect_retry path (attempts - 1)

let roundtrip ic oc (req : P.request) =
  P.write_frame oc (P.request_to_json req);
  let rec await () =
    match P.read_frame ic with
    | Error msg -> Error msg
    | Ok json -> (
      match P.frame_of_json json with
      | Error msg -> Error msg
      | Ok (P.Progress _) -> await ()
      | Ok (P.Reply { id; reply; footer }) ->
        if id = req.P.id then Ok (reply, footer) else Error ("reply for " ^ id))
  in
  await ()

(* Saturation retries with decorrelated backoff; an op's time runs from
   the first send to the terminal reply. *)
let saturation_policy =
  { Retry.max_attempts = 6; base_delay = 0.004; factor = 2.0; max_delay = 0.1; jitter = 0.5;
    sleep = Unix.sleepf; retryable = (fun _ -> false) }

type outcome = {
  cls : cls;
  req : P.request;
  start : float;
  stop : float;
  reply : (P.reply * P.footer option, string) Stdlib.result;
}

let send ic oc cls req =
  let start = now () in
  let rec go attempt =
    match roundtrip ic oc req with
    | Ok (P.Error_r { code = P.Saturated; _ }, _) when attempt < saturation_policy.Retry.max_attempts ->
      saturation_policy.Retry.sleep
        (Retry.delay_for ~salt:(Hashtbl.hash req.P.id) saturation_policy ~attempt);
      go (attempt + 1)
    | r -> r
  in
  let reply = go 1 in
  { cls; req; start; stop = now (); reply }

let status_of = function
  | P.Likelihood_r { status; _ } | P.Mc_r { status; _ } -> Some status
  | P.Predict_r _ -> Some P.Clean
  | _ -> None

let ok o =
  match o.reply with
  | Ok (r, _) -> ( match status_of r with Some (P.Clean | P.Escalated _) -> true | _ -> false)
  | Error _ -> false

let op_name o = P.op_name o.req.P.payload

(* Requests that factorize (likelihoods and Monte-Carlo batches; a
   prediction only reads the cached artifact). *)
let factorizes (req : P.request) = match req.P.payload with P.Predict _ -> false | _ -> true

(* {1 Server lifecycle} *)

type live = {
  server : Server.t;
  pool : Pool.t;
  obs : Metrics.t;
  thread : Thread.t;
  path : string;
  ctl : Unix.file_descr * in_channel * out_channel;
}

let start ~seed ~dir ~traced =
  let obs = Metrics.create () in
  let pool = Pool.create ~obs () in
  let server =
    Server.create ~obs ~cache_capacity:4096 ~trace_sample:(if traced then 1.0 else 0.) ~pool ()
  in
  let path = Filename.concat dir "serve.sock" in
  let thread = Thread.create (fun () -> ignore (Server.serve_unix server ~path ())) () in
  let ((_, ic, oc) as ctl) = connect_retry path 250 in
  (match roundtrip ic oc { P.id = "ready"; priority = P.Normal; timeout_s = None; payload = P.Ping } with
  | Ok (P.Pong, _) -> ()
  | _ -> failwith "serve_mix: server did not answer ping");
  (* Warm the cache: one likelihood per hot shape, sequentially. *)
  List.iteri
    (fun i s ->
      match
        roundtrip ic oc
          { P.id = Printf.sprintf "warm-%d" i; priority = P.Normal; timeout_s = None;
            payload = P.Likelihood { s with P.data_seed = 1 } }
      with
      | Ok (P.Likelihood_r { status = P.Clean; _ }, _) -> ()
      | _ -> failwith "serve_mix: warm-up request failed")
    (hot_shapes ~seed);
  { server; pool; obs; thread; path; ctl }

let stop l =
  let fd, ic, oc = l.ctl in
  (match roundtrip ic oc { P.id = "stop"; priority = P.Normal; timeout_s = None; payload = P.Shutdown } with
  | Ok (P.Shutdown_r, _) -> ()
  | _ -> prerr_endline "serve_mix: shutdown handshake failed");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Thread.join l.thread;
  Pool.shutdown l.pool

(* Set-up: server, pool, socket and warm cache; the teardown is not timed. *)
let setup_once ~seed ~dir =
  let l, dt = time (fun () -> start ~seed ~dir ~traced:false) in
  stop l;
  dt

(* Two closed-loop clients while [Workload.keep_going] holds for the
   requests both have completed; a client finishes the request it has in
   flight.  Returns outcomes per client and the phase's wall time. *)
let drive l ~seed ~budget =
  let t0 = now () in
  let results = Array.make clients [] in
  let completed = Atomic.make 0 in
  let client c =
    let fd, ic, oc = connect l.path in
    let next = request ~seed ~client:c in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let slot = ref 0 in
        while Workload.keep_going ~budget ~elapsed:(now () -. t0) ~ops:(Atomic.get completed) do
          let cls, req = next !slot in
          results.(c) <- send ic oc cls req :: results.(c);
          Atomic.incr completed;
          incr slot
        done)
  in
  let threads = List.init clients (fun c -> Thread.create client c) in
  List.iter Thread.join threads;
  (Array.map List.rev results, now () -. t0)

(* {1 The workload} *)

let numbers_match a b =
  match (a, b) with
  | P.Likelihood_r x, P.Likelihood_r y ->
    f64_eq x.loglik y.loglik && f64_eq x.log_det y.log_det && f64_eq x.quad_form y.quad_form
  | P.Mc_r x, P.Mc_r y ->
    Array.length x.logliks = Array.length y.logliks
    && Array.for_all2 f64_eq x.logliks y.logliks
    && f64_eq x.mean_loglik y.mean_loglik
  | P.Predict_r x, P.Predict_r y ->
    Array.for_all2 f64_eq x.mean y.mean && Array.for_all2 f64_eq x.variance y.variance
  | _ -> false

let count p l = List.length (List.filter p l)

let run ~seed ~seconds ~trace ~dir =
  let l, setup_first = time (fun () -> start ~seed ~dir ~traced:false) in
  let cold_before = Workload.cold_setups ~workload:"serve_mix" ~seed ~reps:Workload.cold_reps in
  let stats0 = Cache.stats (Server.cache l.server) in
  let measured = if trace then seconds /. 2. else seconds in
  let per_client, elapsed = drive l ~seed ~budget:measured in
  let stats1 = Cache.stats (Server.cache l.server) in
  stop l;
  let setup_ts =
    (setup_first :: cold_before)
    @ Workload.cold_setups ~workload:"serve_mix" ~seed ~reps:Workload.cold_reps
  in
  let setup_s = Stats.median setup_ts in
  let all = List.concat (Array.to_list per_client) in
  let attempted = List.length all in
  let oks = List.filter ok all in
  let failed = attempted - List.length oks in
  List.iter
    (fun o ->
      if not (ok o) then
        Printf.eprintf "serve_mix: %s failed: %s\n%!" o.req.P.id
          (match o.reply with
           | Error e -> "transport: " ^ e
           | Ok (P.Error_r { code; message }, _) -> P.error_code_name code ^ ": " ^ message
           | Ok (r, _) -> Option.fold ~none:"untyped" ~some:P.status_name (status_of r)))
    all;
  let lat o = o.stop -. o.start in
  write_ops ~workload:"serve_mix" ~seed
    ~t0:(List.fold_left (fun acc o -> Float.min acc o.start) infinity all)
    (List.sort compare (List.map (fun o -> (o.start, lat o, op_name o ^ "/" ^ cls_name o.cls)) oks));
  let sorted = Stats.sorted (List.map lat oks) in
  let ops = Array.length sorted in
  (* Reference: client 0's first [period] requests, re-served in process
     by a fresh server with its own pool.  Its clean replies must be bitwise
     equal to the live ones, and its motion counters give a motion_frac
     that repeats exactly for a seed. *)
  let ref_obs = Metrics.create () in
  let ref_pool = Pool.create () in
  let ref_server = Server.create ~obs:ref_obs ~cache_capacity:4096 ~pool:ref_pool () in
  let next0 = request ~seed ~client:0 in
  let live0 = Array.of_list per_client.(0) in
  let compared = ref 0 and mismatched = ref 0 in
  let ref_escalated = ref 0 and ref_escalating = ref 0 in
  for slot = 0 to period - 1 do
    let cls, req = next0 slot in
    let reply = Server.handle ref_server req in
    (match status_of reply with Some (P.Escalated _) -> incr ref_escalated | _ -> ());
    if cls = Escalating && factorizes req then
      incr ref_escalating;
    if slot < Array.length live0 then
      match live0.(slot).reply with
      | Ok (r, _) when status_of r = Some P.Clean ->
        incr compared;
        if not (numbers_match r reply) then incr mismatched
      | _ -> ()
  done;
  Pool.shutdown ref_pool;
  let ref_snap = Metrics.snapshot ref_obs in
  let motion_frac =
    float_of_int (Probes.counter ref_snap "cholesky.shipped_bytes")
    /. float_of_int (max 1 (Probes.counter ref_snap "cholesky.shipped_bytes_fp64"))
  in
  (* Pins: the workload keeps its character. *)
  let of_cls k = List.filter (fun o -> o.cls = k) oks in
  let escalated o =
    match o.reply with
    | Ok (r, _) -> ( match status_of r with Some (P.Escalated _) -> true | _ -> false)
    | Error _ -> false
  in
  let escalated_replies = count escalated oks in
  let hits = stats1.Cache.hits - stats0.Cache.hits and misses = stats1.Cache.misses - stats0.Cache.misses in
  let fresh = List.length (of_cls Fresh) and esc = List.length (of_cls Escalating) in
  let esc_factorizing = count (fun o -> factorizes o.req) (of_cls Escalating) in
  let rounds =
    List.filter_map
      (fun o ->
        match o.reply with
        | Ok ((P.Likelihood_r _ | P.Mc_r _) as r, _) -> (
          match status_of r with Some (P.Escalated k) -> Some (1 + k) | _ -> Some 1)
        | _ -> None)
      oks
  in
  let rounds_per_factor = Stats.mean (List.map float_of_int rounds) in
  let esc_rounds =
    List.sort_uniq compare
      (List.filter_map
         (fun o -> match o.reply with
            | Ok (r, _) -> ( match status_of r with Some (P.Escalated k) -> Some (1 + k) | _ -> None)
            | Error _ -> None)
         oks)
  in
  let checks =
    [
      (Printf.sprintf "at least %d ops, so 10 lie beyond p90" Workload.min_ops, trace || ops >= Workload.min_ops);
      ("quantiles within [min, max] and monotone", Stats.quantiles_sane sorted [ 0.5; 0.9 ]);
      ("every reply carries a typed status", failed = 0);
      (Printf.sprintf "sampled clean replies bitwise equal to Server.handle (%d compared)" !compared,
       !compared > 0 && !mismatched = 0);
      ("pin: every factorizing request on the escalating shape escalates, and no other",
       escalated_replies = esc_factorizing
       && count escalated (of_cls Escalating) = esc_factorizing
       && !ref_escalated = !ref_escalating && !ref_escalating > 0);
      ("pin: every escalation takes 6 rounds", esc_rounds = [ 6 ]);
      ("pin: one cache lookup per request", hits + misses = ops);
      ("pin: misses are the fresh and escalating-shape requests",
       misses >= fresh && misses <= fresh + esc);
    ]
  in
  let p50 = Stats.quantile_sorted sorted 0.5 and p90 = Stats.quantile_sorted sorted 0.9 in
  let total_lat = Stats.sum (List.map lat oks) in
  let by_group title name keys belongs =
    Printf.sprintf "latency by %s (count, p50 ms, share of op time): %s" title
      (String.concat "; "
         (List.map
            (fun k ->
              let ls = List.map lat (List.filter (belongs k) oks) in
              if ls = [] then name k ^ " none"
              else
                Printf.sprintf "%s %d, %.1f, %.1f%%" (name k) (List.length ls) (ms (Stats.median ls))
                  (100. *. Stats.sum ls /. total_lat))
            keys))
  in
  let notes =
    [
      Workload.setup_note setup_ts;
      Printf.sprintf
        "n=%d, %d closed-loop clients; b_serve's request_for mix with the escalating shape at nb 16, \
         every %dth request a fresh shape"
        n clients fresh_every;
      Printf.sprintf "latency samples: %d (p90 has %d beyond it)" ops (Stats.beyond sorted 0.9);
      Printf.sprintf "fail_frac = %d / %d attempted" failed attempted;
      Printf.sprintf "cache: %d hits, %d misses (%d fresh + %d escalating-shape requests)" hits misses
        fresh esc;
      by_group "shape" cls_name classes (fun k o -> o.cls = k);
      by_group "request" Fun.id op_names (fun k o -> op_name o = k);
    ]
  in
  let e2e =
    [
      m "op_p50_ms" "ms" (ms p50);
      m "op_p90_ms" "ms" (ms p90);
      m "ops_per_s" "1/s" (float_of_int ops /. elapsed);
      m "ok_frac" "frac" (float_of_int (List.length oks) /. float_of_int (max 1 attempted));
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" (peak_rss_mb ());
      m ~source:"computed" "motion_frac" "frac" motion_frac;
    ]
  in
  let layers, trace_checks, trace_notes =
    if not trace then ([], [], [])
    else begin
      let l = start ~seed ~dir ~traced:true in
      let per_client, elapsed_t = drive l ~seed ~budget:(seconds /. 2.) in
      let tsnap = Metrics.snapshot l.obs in
      let workers = Pool.num_workers l.pool in
      stop l;
      let touts = List.filter ok (List.concat (Array.to_list per_client)) in
      let tr = Spans.create () in
      let footers =
        List.filter_map
          (fun o ->
            match o.reply with
            | Ok (_, Some f) -> Some f
            | _ -> None)
          touts
      in
      List.iteri
        (fun op o ->
          match o.reply with
          | Ok (_, Some f) ->
            let root = Spans.reserve tr in
            let sid = Spans.add tr ~op ~parent:root ~name:"serve.server" ~start:nan ~dur:f.P.f_wall_s in
            Spans.attributed tr ~op ~parent:sid "linalg.pool_tasks"
              (Float.min f.P.f_span.Geomix_obs.Span.s_busy_s f.P.f_wall_s);
            Spans.close tr ~id:root ~op ~parent:(-1) ~name:"op" ~start:o.start ~stop:o.stop
          | _ -> ())
        touts;
      let a = Spans.analyze tr in
      Spans.write tr ~path:(Filename.concat out_root (Printf.sprintf "spans-serve_mix-seed%d.jsonl" seed));
      let svc =
        Probes.service_of ~snap:tsnap ~elapsed:elapsed_t ~workers
          (List.map (fun (f : P.footer) -> f.P.f_span) footers)
      in
      let p50_t = Stats.median (List.map lat touts) in
      let hot = List.hd (hot_shapes ~seed) in
      let cov = Probes.cov_of_spec hot and locs = Probes.sites hot in
      let pipe = Probes.pipeline ~cov ~locs ~nb:hot.P.nb ~u_req:hot.P.u_req in
      let relerr =
        (* The hot shape's clean likelihood against the exact engine. *)
        let z = Geomix_geostat.Field.synthesize ~rng:(Rng.create ~seed:hot.P.data_seed) ~cov locs in
        let engine = Geomix_geostat.Likelihood.mixed ~u_req:hot.P.u_req ~nb:hot.P.nb () in
        let mixed = Geomix_geostat.Likelihood.evaluate_robust engine ~cov ~locs ~z in
        let exact = Geomix_geostat.Likelihood.evaluate_robust Geomix_geostat.Likelihood.Exact ~cov ~locs ~z in
        Float.abs (mixed.Geomix_geostat.Likelihood.loglik -. exact.Geomix_geostat.Likelihood.loglik)
        /. Float.abs exact.Geomix_geostat.Likelihood.loglik
      in
      let common =
        Probes.common ~dir ~shape:{ Probes.n; nb = hot.P.nb; u_req = hot.P.u_req; spec = hot } ~workers
      in
      (* The geostat layer runs inside the server, out of the client's
         sight: estimate its share from the probe times and the traced
         phase's request counts. *)
      let geostat_note =
        let probe name = (List.find (fun (mt : metric) -> mt.name = name) common).value in
        let factorizing = count (fun o -> factorizes o.req) touts in
        let builds = count (fun o -> o.cls <> Hot) touts in
        let est_ms =
          (probe "geostat.synth_ms" *. float_of_int (List.length touts))
          +. (probe "geostat.predict_ms" *. float_of_int (List.length touts - factorizing))
          +. (ms pipe.Probes.cov_build_s *. float_of_int factorizing)
          +. (probe "serve.build_ms" *. float_of_int builds)
        in
        Printf.sprintf
          "estimated geostat share (probe times x traced request counts): %.1f%% of traced op time"
          (100. *. est_ms /. ms a.Spans.wall)
      in
      let layers =
        common
        @ List.filter
            (fun (mt : metric) ->
              not (List.mem mt.name [ "core.rounds_per_factor"; "core.shipped_bytes"; "core.shipped_bytes_fp64" ]))
            (Probes.pipeline_metrics pipe)
        @ Probes.service_metrics ~source:"trace" svc
        @ [
            m "core.rounds_per_factor" "count" rounds_per_factor;
            m ~source:"trace" "core.shipped_bytes" "B"
              (Stats.mean (List.map (fun (f : P.footer) -> float_of_int f.P.f_span.Geomix_obs.Span.s_bytes_stc) footers));
            m ~source:"trace" "core.shipped_bytes_fp64" "B"
              (Stats.mean (List.map (fun (f : P.footer) -> float_of_int f.P.f_span.Geomix_obs.Span.s_bytes_fp64) footers));
            m ~source:"computed" "geostat.loglik_relerr" "frac" relerr;
            m "serve.cache_hit_frac" "frac" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
            m "serve.escalated_frac" "frac" (float_of_int escalated_replies /. float_of_int (max 1 ops));
            m ~source:"trace" "obs.trace_overhead_frac" "frac" ((p50_t /. p50) -. 1.);
          ]
        @ Workload.bypassed_ooc @ Workload.share_metrics a
      in
      ( layers,
        [ ("every traced reply carries a footer", List.length footers = List.length touts);
          Workload.relerr_check relerr;
          ("spans nest in their parents (no span escapes, no negative self time)", a.Spans.problems = []) ],
        Workload.share_notes a @ [ geostat_note ]
        @ List.map (fun p -> "trace problem: " ^ p) a.Spans.problems )
    end
  in
  { attempted; failed; checks = checks @ trace_checks; e2e; layers; notes = notes @ trace_notes }
