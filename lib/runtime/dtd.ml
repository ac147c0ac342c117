module Pool = Geomix_parallel.Pool
module Dag_exec = Geomix_parallel.Dag_exec
module Metrics = Geomix_obs.Metrics
module Events = Geomix_obs.Events
module Guard = Geomix_integrity.Guard

type task_id = int

type task = {
  name : string;
  body : unit -> unit;
  reads : int list; (* declared footprint, sorted and deduplicated *)
  writes : int list;
  raw_srcs : (int * task_id) list; (* (datum, writer) RAW edges into this task *)
  mutable preds : task_id list; (* reverse insertion order while building *)
  mutable succs : task_id list;
  mutable indeg : int;
}

type datum_state = {
  mutable last_writer : task_id option;
  mutable readers_since : task_id list;
}

type t = {
  mutable tasks : task array;
  mutable count : int;
  data : (int, datum_state) Hashtbl.t;
  bus : Events.t option;
}

let create ?bus () = { tasks = [||]; count = 0; data = Hashtbl.create 64; bus }

let datum t key =
  match Hashtbl.find_opt t.data key with
  | Some d -> d
  | None ->
    let d = { last_writer = None; readers_since = [] } in
    Hashtbl.add t.data key d;
    d

let grow t task =
  if t.count = Array.length t.tasks then begin
    let cap = Stdlib.max 16 (2 * Array.length t.tasks) in
    let tasks = Array.make cap task in
    Array.blit t.tasks 0 tasks 0 t.count;
    t.tasks <- tasks
  end

let add_dep t ~on ~target =
  let tgt = t.tasks.(target) and src = t.tasks.(on) in
  if on <> target && not (List.mem on tgt.preds) then begin
    tgt.preds <- on :: tgt.preds;
    src.succs <- target :: src.succs;
    tgt.indeg <- tgt.indeg + 1
  end

let insert t ~name ~reads ~writes body =
  let id = t.count in
  let reads = List.sort_uniq compare reads in
  let writes = List.sort_uniq compare writes in
  (* RAW edges are the data that actually travels: each read of a datum
     with a live writer is one transfer of that datum (a write-only access
     overwrites without fetching). *)
  let raw_srcs =
    List.filter_map
      (fun key ->
        match (datum t key).last_writer with Some w -> Some (key, w) | None -> None)
      reads
  in
  let task = { name; body; reads; writes; raw_srcs; preds = []; succs = []; indeg = 0 } in
  grow t task;
  t.tasks.(t.count) <- task;
  t.count <- t.count + 1;
  List.iter
    (fun key ->
      let d = datum t key in
      (match d.last_writer with Some w -> add_dep t ~on:w ~target:id | None -> ());
      d.readers_since <- id :: d.readers_since)
    reads;
  List.iter
    (fun key ->
      let d = datum t key in
      (match d.last_writer with Some w -> add_dep t ~on:w ~target:id | None -> ());
      List.iter (fun r -> add_dep t ~on:r ~target:id) d.readers_since;
      d.last_writer <- Some id;
      d.readers_since <- [])
    writes;
  (match t.bus with
  | None -> ()
  | Some bus ->
    Events.emit ~level:Events.Debug bus ~component:"dtd" ~name:"submit"
      [
        ("task", Events.fint id);
        ("label", Events.fstr name);
        ("reads", Events.fint (List.length reads));
        ("writes", Events.fint (List.length writes));
        ("raw_edges", Events.fint (List.length raw_srcs));
      ]);
  id

let num_tasks t = t.count

let check_id t id = if id < 0 || id >= t.count then invalid_arg "Dtd: bad task id"

let name t id =
  check_id t id;
  t.tasks.(id).name

(* Declared (reads, writes) footprint, as normalized at insertion.  The
   verify layer rederives the must-happen-before relation from this and
   cross-checks it against the edges [insert] actually created. *)
let footprint t id =
  check_id t id;
  (t.tasks.(id).reads, t.tasks.(id).writes)

(* Run one task body directly.  Virtual executors (Geomix_verify.Explore)
   use this to replay the graph under a chosen linearization without a
   pool. *)
let execute_task t id =
  check_id t id;
  t.tasks.(id).body ()

(* Bytes-on-the-wire accounting.  A task fetches every datum it reads from
   that datum's last writer (one RAW edge = one transfer), so the volume is
   a pure function of the inserted program — independent of the schedule
   the executor happens to produce, which the property suites assert. *)

let default_datum_bytes _ = 1

let raw_sources t id =
  check_id t id;
  t.tasks.(id).raw_srcs

let task_in_bytes ?(datum_bytes = default_datum_bytes) t id =
  check_id t id;
  List.fold_left (fun acc (key, _) -> acc + datum_bytes key) 0 t.tasks.(id).raw_srcs

let comm_volume ?(datum_bytes = default_datum_bytes) t =
  let acc = ref 0 in
  for id = 0 to t.count - 1 do
    acc := !acc + task_in_bytes ~datum_bytes t id
  done;
  !acc

let predecessors t id =
  check_id t id;
  List.rev t.tasks.(id).preds

let successors t id =
  check_id t id;
  List.rev t.tasks.(id).succs

let in_degree t = Array.init t.count (fun id -> t.tasks.(id).indeg)

let execute ?pool ?obs ?(datum_bytes = default_datum_bytes) ?trace ?bus ?faults
    ?retry ?snapshot ?integrity ?datum_mat ?observe t =
  (* The executing bus defaults to the one the graph was built with, so a
     Dtd created with [?bus] narrates submission and execution on the same
     stream without repeating the argument. *)
  let bus = match bus with Some _ -> bus | None -> t.bus in
  let record =
    match obs with
    | None -> fun _ -> ()
    | Some reg ->
      let tasks = Metrics.counter reg "dtd.tasks" in
      let bytes = Metrics.counter reg "dtd.raw_bytes" in
      let edges = Metrics.counter reg "dtd.raw_edges" in
      fun id ->
        Metrics.incr tasks;
        Metrics.add bytes (task_in_bytes ~datum_bytes t id);
        Metrics.add edges (List.length t.tasks.(id).raw_srcs)
  in
  let note_complete =
    match bus with
    | None -> fun _ -> ()
    | Some bus ->
      fun id ->
        Events.emit ~level:Events.Debug bus ~component:"dtd" ~name:"complete"
          [
            ("task", Events.fint id);
            ("label", Events.fstr t.tasks.(id).name);
            ("raw_bytes", Events.fint (task_in_bytes ~datum_bytes t id));
            ("raw_edges", Events.fint (List.length t.tasks.(id).raw_srcs));
          ]
  in
  let task_label id = t.tasks.(id).name in
  let dag_obs =
    let hooks =
      List.filter_map Fun.id
        [
          Option.map (fun tr -> Obs_bridge.recorder ~name:task_label tr) trace;
          Option.map (fun b -> Obs_bridge.bus_recorder ~name:task_label ~component:"dtd" b) bus;
        ]
    in
    match hooks with [] -> None | [ h ] -> Some h | hs -> Some (Obs_bridge.fanout hs)
  in
  (* Recovery metrics: re-executions and the footprint data rolled back to
     make them sound. *)
  let metric_retry, note_restore =
    match obs with
    | None -> (None, fun _ -> ())
    | Some reg ->
      let retries = Metrics.counter reg "dtd.retries" in
      let restores = Metrics.counter reg "dtd.restores" in
      let restored = Metrics.counter reg "dtd.restored_bytes" in
      ( Some (fun ~id:_ ~attempt:_ _ -> Metrics.incr retries),
        fun id ->
          Metrics.incr restores;
          Metrics.add restored
            (List.fold_left (fun acc k -> acc + datum_bytes k) 0 t.tasks.(id).writes) )
  in
  let bus_retry =
    match bus with
    | None -> None
    | Some bus ->
      Some
        (fun ~id ~attempt exn ->
          Events.emit ~level:Events.Warn bus ~component:"dtd" ~name:"retry"
            ([
               ("task", Events.fint id);
               ("label", Events.fstr t.tasks.(id).name);
               ("attempt", Events.fint attempt);
               ("error", Events.fstr (Printexc.to_string exn));
             ]
            @
            match retry with
            | None -> []
            | Some p ->
              [ ("backoff_s", Events.fnum (Geomix_fault.Retry.delay_for p ~attempt)) ]))
  in
  let note_retry =
    match (metric_retry, bus_retry) with
    | None, None -> None
    | _ ->
      Some
        (fun ~id ~attempt exn ->
          (match metric_retry with Some f -> f ~id ~attempt exn | None -> ());
          match bus_retry with Some f -> f ~id ~attempt exn | None -> ())
  in
  (* A task's restorable state is exactly its declared written footprint:
     capture each written datum through the caller's [snapshot] before the
     first attempt, restore them all before a re-execution. *)
  let capture =
    Option.map
      (fun snap id ->
        let restorers = List.map snap t.tasks.(id).writes in
        fun () ->
          List.iter (fun r -> r ()) restorers;
          note_restore id)
      snapshot
  in
  (* ABFT boundaries.  A consumer verifies every RAW-edge payload it is
     about to read against the producer's stamp (detect), repairing from
     the guard's snapshot when possible (recover) and escalating with
     [Guard.Corrupt] — deliberately non-retryable: re-running a task on
     corrupted inputs reproduces the wrong answer — otherwise.  A producer
     stamps every datum it wrote, so the next consumer hop is covered. *)
  let verify_in, stamp_out =
    match (integrity, datum_mat) with
    | Some g, Some dm ->
      ( (fun id ->
          List.iter
            (fun (key, _writer) ->
              match dm key with
              | None -> ()
              | Some m ->
                if not (Guard.check g ~key m) then begin
                  let task = t.tasks.(id).name in
                  Guard.note_detected g ~key ~task;
                  if Guard.restore g ~key m && Guard.check g ~key m then
                    Guard.note_recovered g ~key ~task
                  else Guard.corrupt g ~key ~task "raw-edge payload corrupted"
                end)
            t.tasks.(id).raw_srcs),
        fun id ->
          List.iter
            (fun key ->
              match dm key with None -> () | Some m -> Guard.stamp g ~key m)
            t.tasks.(id).writes )
    | _ -> ((fun _ -> ()), fun _ -> ())
  in
  (* Range instrumentation: after a task body runs, hand each datum it
     wrote (resolved through [datum_mat]) to the observer.  Read-only — the
     execution is bit-identical with or without the hook. *)
  let observe_out =
    match (observe, datum_mat) with
    | Some f, Some dm ->
      fun id ->
        List.iter
          (fun key -> match dm key with None -> () | Some m -> f ~key m)
          t.tasks.(id).writes
    | _ -> fun _ -> ()
  in
  let run pool =
    Dag_exec.run ?obs:dag_obs ~task_name:(fun id -> t.tasks.(id).name) ?faults ?retry
      ?capture ?on_retry:note_retry ~pool ~num_tasks:t.count
      ~in_degree:(in_degree t)
      ~successors:(fun id -> t.tasks.(id).succs)
      ~execute:(fun id ->
        record id;
        verify_in id;
        t.tasks.(id).body ();
        observe_out id;
        stamp_out id;
        note_complete id)
      ()
  in
  match pool with Some pool -> run pool | None -> Pool.with_pool ~num_workers:0 run

let critical_path_length t =
  (* Insertion order is a topological order: preds always have smaller ids. *)
  let depth = Array.make (Stdlib.max t.count 1) 0 in
  for id = 0 to t.count - 1 do
    let d =
      List.fold_left (fun acc p -> Stdlib.max acc (depth.(p) + 1)) 1 t.tasks.(id).preds
    in
    depth.(id) <- d
  done;
  if t.count = 0 then 0 else Array.fold_left Stdlib.max 0 (Array.sub depth 0 t.count)
