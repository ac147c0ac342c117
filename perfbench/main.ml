(* Measured wall-clock benchmark of geomix.

     perfbench/run.sh --workload <serve_mix|ooc_factor>
                      --seed <n> --seconds <s> --trace <0|1>

   Prints every metric by name, unit and source ("live": measured in the
   timed phase; "trace": measured in the traced phase; "probe": a layer's
   public function timed at the workload's shape; "computed": derived
   from counts; "bypassed": a count of a layer the workload does not
   use), the output checks, and as the last line one JSON object
   with the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1).  Exits non-zero when any output check fails.  With
   --setup-only it times one set-up of the workload and prints the
   seconds (the run re-executes itself this way to time cold set-ups). *)

(* The metrics a run must report, with their units, are the ones
   BENCHMARK.json declares, read from the working directory (the
   repository root). *)
let declared section =
  let module J = Geomix_obs.Jsonlite in
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match J.of_string text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j ->
    Option.bind (J.member section j) J.to_list
    |> Option.value ~default:[]
    |> List.filter_map (fun m ->
           match (Option.bind (J.member "name" m) J.to_str, Option.bind (J.member "unit" m) J.to_str) with
           | Some name, Some unit_ -> Some (name, unit_)
           | _ -> None)

let workloads =
  [
    ("serve_mix", (W_serve.run, W_serve.setup_once));
    ("ooc_factor", (W_ooc.run, W_ooc.setup_once));
  ]

let usage () =
  prerr_endline
    "usage: perfbench/run.sh --workload <serve_mix|ooc_factor> --seed N \
     --seconds S --trace <0|1>";
  exit 2

let env name = Option.value (Sys.getenv_opt name) ~default:"none"

let js = Common.json_string

(* JSON number with all its digits. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let provenance =
  [
    ("profile", Build_info.profile);
    ("ocaml", Build_info.ocaml_version);
    ("flambda", Build_info.flambda);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("commit", env "PERFBENCH_COMMIT");
    ("src_digest", env "PERFBENCH_SRC_DIGEST");
  ]

(* The whole result — provenance, every metric with its source, checks
   and notes — recorded under the output directory. *)
let record ~workload ~seed ~trace ~correct (r : Common.result) =
  Common.mkdir_p Common.out_root;
  let path =
    Filename.concat Common.out_root
      (Printf.sprintf "result-%s-seed%d-trace%d.json" workload seed (Bool.to_int trace))
  in
  let metric (mt : Common.metric) =
    Printf.sprintf "{\"name\": %s, \"value\": %s, \"unit\": %s, \"source\": %s}" (js mt.Common.name)
      (num mt.Common.value) (js mt.Common.unit_) (js mt.Common.source)
  in
  let list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"workload\": %s, \"seed\": %d, \"trace\": %b, \"correct\": %b,\n\
     \"provenance\": {%s},\n\"end_to_end\": %s,\n\"per_layer\": %s,\n\"checks\": %s,\n\"notes\": %s}\n"
    (js workload) seed trace correct
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (js k) (js v)) provenance))
    (list metric r.Common.e2e) (list metric r.Common.layers)
    (list (fun (n, ok) -> Printf.sprintf "{\"check\": %s, \"ok\": %b}" (js n) ok) r.Common.checks)
    (list js r.Common.notes);
  close_out oc

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let setup_only = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := (v = "1"); parse rest
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run, setup_once =
    match List.assoc_opt !workload workloads with Some f -> f | None -> usage ()
  in
  if !setup_only then begin
    (* One cold set-up, timed for a parent run (see Workload.cold_setups). *)
    let dt = Common.with_scratch (!workload ^ "-setup") (fun dir -> setup_once ~seed:!seed ~dir) in
    Printf.printf "%.9f\n" dt;
    exit 0
  end;
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\nprovenance: %s\n%!" !workload !seed
    !seconds !trace
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) provenance));
  if Build_info.profile <> "release" then
    Printf.printf "WARNING: built under the %s profile, not release — timings are not comparable\n"
      Build_info.profile;
  let r =
    Common.with_scratch !workload (fun dir ->
        run ~seed:!seed ~seconds:!seconds ~trace:!trace ~dir)
  in
  List.iter (fun n -> Printf.printf "  %s\n" n) r.Common.notes;
  let show title ms =
    Printf.printf "%s:\n" title;
    List.iter
      (fun (mt : Common.metric) ->
        Printf.printf "  %-30s %16.6g %-8s [%s]\n" mt.Common.name mt.Common.value mt.Common.unit_
          mt.Common.source)
      ms
  in
  show "end-to-end" r.Common.e2e;
  if !trace then show "per-layer" r.Common.layers;
  let wanted, have =
    if !trace then (declared "per_layer", r.Common.layers) else (declared "end_to_end", r.Common.e2e)
  in
  let find name = List.find_opt (fun (mt : Common.metric) -> mt.Common.name = name) have in
  let missing = List.filter (fun (n, _) -> find n = None) wanted in
  let mislabelled =
    List.filter_map
      (fun (n, u) ->
        match find n with
        | Some mt when mt.Common.unit_ <> u -> Some (Printf.sprintf "%s in %s, declared %s" n mt.Common.unit_ u)
        | _ -> None)
      wanted
  in
  let checks =
    r.Common.checks
    @ [ ("every declared metric reported (missing: " ^ String.concat ", " (List.map fst missing) ^ ")",
         missing = []);
        ("every metric in its declared unit (mismatched: " ^ String.concat "; " mislabelled ^ ")",
         mislabelled = []);
        ("BENCHMARK.json declares metrics for this mode", wanted <> []);
        ("at least one op attempted", r.Common.attempted >= 1) ]
  in
  Printf.printf "checks:\n";
  List.iter (fun (name, ok) -> Printf.printf "  [%s] %s\n" (if ok then "ok" else "FAIL") name) checks;
  let correct = List.for_all snd checks in
  let metrics =
    List.filter_map
      (fun (name, _) ->
        Option.map
          (fun (mt : Common.metric) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (js name) (num mt.Common.value) (js mt.Common.unit_))
          (find name))
      wanted
  in
  let line =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
      r.Common.attempted r.Common.failed (String.concat ", " metrics)
  in
  record ~workload:!workload ~seed:!seed ~trace:!trace ~correct r;
  print_endline line;
  exit (if correct then 0 else 1)
