(** Dynamic Task Discovery — the second PaRSEC DSL the paper describes
    (Section III-B): tasks are inserted sequentially with declared data
    footprints, and the runtime derives the dataflow DAG from superscalar
    semantics (RAW, WAR and WAW dependencies on each datum), then executes
    it asynchronously.

    Data are identified by caller-chosen integer keys (e.g. packed tile
    indices).  Insertion order defines the sequential semantics the
    parallel execution must preserve. *)

type t
type task_id = int

val create : ?bus:Geomix_obs.Events.t -> unit -> t
(** [create ()] builds an empty graph.  With [?bus], graph construction
    and execution are narrated on the telemetry bus (component ["dtd"]):
    {!insert} emits a Debug [submit] event per task, and {!execute}
    defaults its own [?bus] to this one. *)

val insert :
  t -> name:string -> reads:int list -> writes:int list -> (unit -> unit) -> task_id
(** Append a task that reads and writes the given data keys.  Dependencies
    on earlier tasks are derived automatically:
    - a read depends on the datum's last writer (RAW);
    - a write depends on the last writer (WAW) and on every reader since
      (WAR), and becomes the new last writer. *)

val num_tasks : t -> int
val name : t -> task_id -> string

val footprint : t -> task_id -> int list * int list
(** The declared (reads, writes) keys of a task, sorted and deduplicated.
    The verify layer (Geomix_verify.Races) rederives the must-happen-before
    relation from footprints and cross-checks the derived DAG against it. *)

val execute_task : t -> task_id -> unit
(** Run one task body directly.  Virtual executors
    (Geomix_verify.Explore) use this to replay the graph under a chosen
    linearization without a pool. *)

val predecessors : t -> task_id -> task_id list
(** Deduplicated, in insertion order. *)

val successors : t -> task_id -> task_id list
val in_degree : t -> int array

(** {1 Bytes-on-the-wire accounting}

    A task fetches each datum it reads from that datum's last writer: one
    RAW edge is one transfer, sized by [datum_bytes] (default 1 per datum —
    pass e.g. tile byte sizes from
    {!Geomix_precision.Fpformat.scalar_bytes}).  The volume is a pure
    function of the inserted program, so it is identical under every
    schedule the derived DAG admits — the property suites replay seeded
    interleavings to assert exactly that. *)

val raw_sources : t -> task_id -> (int * task_id) list
(** The [(datum, writer)] RAW edges into a task, in the task's read
    order. *)

val task_in_bytes : ?datum_bytes:(int -> int) -> t -> task_id -> int
(** Bytes this task fetches over its RAW edges. *)

val comm_volume : ?datum_bytes:(int -> int) -> t -> int
(** Total bytes over all RAW edges of the program. *)

val execute :
  ?pool:Geomix_parallel.Pool.t ->
  ?obs:Geomix_obs.Metrics.t ->
  ?datum_bytes:(int -> int) ->
  ?trace:Trace.t ->
  ?bus:Geomix_obs.Events.t ->
  ?faults:Geomix_fault.Fault.t ->
  ?retry:Geomix_fault.Retry.policy ->
  ?snapshot:(int -> unit -> unit) ->
  ?integrity:Geomix_integrity.Guard.t ->
  ?datum_mat:(int -> Geomix_linalg.Mat.t option) ->
  ?observe:(key:int -> Geomix_linalg.Mat.t -> unit) ->
  t ->
  unit
(** Run every inserted task under the derived dependencies (serial pool by
    default).  The graph is reusable: executing twice runs the bodies
    twice.

    [?obs] records real execution metrics: [dtd.tasks] (task bodies run —
    under retry, re-executions count again), [dtd.raw_edges] (RAW
    transfers) and [dtd.raw_bytes] (their volume under [datum_bytes]).
    [?trace] appends one wall-clock event per task (label = task name,
    resource = pool worker index) — feed it to {!Trace.to_chrome_json} or
    {!Trace.gantt} for a real-run timeline.

    [?bus] (default: the bus the graph was created with, if any) streams
    the same execution onto the telemetry bus (component ["dtd"]): Debug
    [task_begin]/[task_end] pairs carrying the measured run-relative span
    in field ["at"] (identical to what [?trace] records — see
    {!Obs_bridge.bus_recorder}), a Debug [complete] per task with its
    RAW-edge count and byte volume under [datum_bytes], and a Warn [retry]
    per supervised re-execution with the attempt number, the failed
    exception and (when [?retry] is given) the backoff applied.

    {b Supervised recovery.}  [?faults] subjects every task body to the
    seeded fault plan (site ["exec"], keyed by the task's {e name}), and
    [?retry] re-executes failed attempts with bounded backoff.  Sound
    re-execution needs the task's written footprint rolled back first:
    [snapshot key] must capture the current value of datum [key] and
    return a thunk restoring it — e.g. for tile data,
    [fun key -> let saved = Mat.copy (tile key) in
     fun () -> Mat.blit ~src:saved ~dst:(tile key)].  Before a task's
    first attempt each of its written data is captured; before every
    re-execution they are all restored, so a retried task re-runs against
    exactly the state its first attempt saw.  With [?obs], recovery adds
    [dtd.retries], [dtd.restores] and [dtd.restored_bytes] (volume under
    [datum_bytes] of the written footprints rolled back).

    {b ABFT tile integrity.}  [?integrity] (with [?datum_mat] mapping a
    datum key to its tile payload, [None] for non-tile data) guards both
    ends of every RAW edge: before a task body runs, each payload it reads
    is verified against its producer's checksum — a mismatch is a detected
    silent corruption, repaired in place from the guard's snapshot when
    one exists and re-verified, otherwise escalated as
    {!Geomix_integrity.Guard.Corrupt} (non-retryable by design; re-running
    a consumer on corrupted inputs reproduces the wrong answer).  After
    the body, each written payload is (re-)stamped, covering the next hop.
    Counters and [sdc_detected]/[sdc_recovered] events land on the guard's
    own registry/bus.

    {b Range instrumentation.}  [?observe] (with [?datum_mat], same key
    resolution as the integrity guard) is the autotuner's pilot hook: after
    a task body runs, the callback receives each tile datum the task wrote,
    at full working precision and before any later consumer touches it.
    Observers must not mutate payloads; execution is bit-identical with or
    without the hook.  Tasks writing {e distinct} data may be observed
    concurrently under a parallel pool, so observer state must be per-datum
    or synchronized ({!Geomix_autotune.Range_tracker} keeps per-tile
    accumulators).

    The final wait covers every pool thunk (pool-wide fail-fast
    semantics), so concurrent [execute] calls should not share a pool.
    Request-scoped execution — per-job isolation, span attribution and
    critical-path profiles — lives in the tile Cholesky
    ({!Geomix_core.Mp_cholesky.factorize_robust}), the path the request
    server drives. *)

val critical_path_length : t -> int
(** Longest dependency chain, in tasks — the inherent sequential depth of
    the inserted program. *)
