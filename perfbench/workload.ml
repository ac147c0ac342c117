(* Helpers shared by the workloads. *)

(* The largest relative error of a mixed-precision log-likelihood against
   the exact engine that the traced run accepts. *)
let relerr_tolerance = 1e-3

let relerr_check relerr =
  (Printf.sprintf "loglik_relerr %.3g within %g of the Exact engine" relerr relerr_tolerance,
   relerr <= relerr_tolerance)

(* Layers whose self-time share of the traced ops is reported. *)
let share_layers = [ "geostat"; "core"; "linalg"; "serve"; "ooc" ]

let share_metrics (a : Spans.analysis) =
  Common.m ~source:"trace" "obs.unattributed_frac" "frac" (Spans.self_frac a "unattributed")
  :: List.map
       (fun l -> Common.m ~source:"trace" ("obs.self_frac." ^ l) "frac" (Spans.self_frac a l))
       share_layers

let share_notes (a : Spans.analysis) =
  [
    Printf.sprintf "traced ops: %d, %.3f s wall; self time by layer: %s" a.Spans.ops a.Spans.wall
      (String.concat ", "
         (List.map
            (fun (l, v) -> Printf.sprintf "%s %.1f%%" l (100. *. v /. Float.max 1e-12 a.Spans.wall))
            a.Spans.self_by_layer));
  ]

(* Set-up time as a user pays it: in a fresh process.  Just before and
   just after the measured phase the executable is re-run [cold_reps]
   times with --setup-only, each child timing one set-up of the same
   workload and seed; together with the run's own set-up they sample the
   host at two moments a measured phase apart, and the median is
   reported. *)
let cold_reps = 5

let cold_setups ~workload ~seed ~reps =
  List.init reps (fun _ ->
      let args =
        [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--setup-only" |]
      in
      let ic = Unix.open_process_args_in Sys.executable_name args in
      let line = In_channel.input_all ic in
      match (Unix.close_process_in ic, float_of_string_opt (String.trim line)) with
      | Unix.WEXITED 0, Some s -> s
      | _ -> failwith ("set-up child failed: " ^ line))

let setup_note ts =
  "set-up runs (s): " ^ String.concat ", " (List.map (Printf.sprintf "%.4f") ts)

(* A measured phase runs for its time budget and, on a host slow enough
   that the budget holds fewer than [min_ops] ops, on until it has them
   (so at least 10 samples lie beyond p90), but never past [stretch]
   budgets. *)
let min_ops = 100
let stretch = 2.

let keep_going ~budget ~elapsed ~ops =
  elapsed < stretch *. budget && (elapsed < budget || ops < min_ops)

(* A single-threaded closed loop: [f i] for i = 0, 1, ... while
   [keep_going] (the op in flight finishes).  Returns the wall time of the
   loop. *)
let closed_loop ~budget f =
  let t0 = Common.now () in
  let i = ref 0 in
  while keep_going ~budget ~elapsed:(Common.now () -. t0) ~ops:!i do
    f !i;
    incr i
  done;
  Common.now () -. t0

(* Layer counts of a layer the workload does not use. *)
let bypassed_serve =
  [ Common.m ~source:"bypassed" "serve.cache_hit_frac" "frac" 0.;
    Common.m ~source:"bypassed" "serve.escalated_frac" "frac" 0. ]

let bypassed_ooc =
  [ Common.m ~source:"bypassed" "ooc.spill_bytes" "B" 0.;
    Common.m ~source:"bypassed" "ooc.reread_frac" "frac" 0.;
    Common.m ~source:"bypassed" "ooc.checkpoints" "count" 0.;
    Common.m ~source:"bypassed" "ooc.io_s_est" "s" 0. ]
