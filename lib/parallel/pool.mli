(** A fixed pool of worker domains with a shared run queue.

    This is the execution engine under the task runtime: PaRSEC's role of
    "execute a task as soon as its dependencies are satisfied on some
    computational resource" maps to submitting thunks here.  With
    [num_workers = 0] (the default on a single-core machine) the pool
    degrades to deferred serial execution on the calling domain, preserving
    submission order semantics without spawning domains.

    Passing [?obs] instruments the pool with real measurements (the
    simulator-side [Trace] has always had these; this is the live
    counterpart): per-worker executed-task counters
    ([pool.worker<i>.tasks]), queue-wait and run-time histograms in seconds
    ([pool.queue_wait_s], [pool.run_s]), a total counter ([pool.tasks]), an
    idle-wait counter ([pool.idle_waits] — one increment per
    condition-variable sleep), a fail-fast cancellation counter
    ([pool.cancelled]), a peak-queue-length gauge ([pool.queue_peak]) and a
    worker-count gauge ([pool.workers]).  An uninstrumented pool takes no
    clock readings at all.

    {b Failure semantics (fail fast).}  The first exception escaping a
    thunk is stored (with its backtrace) and {e cancels every
    queued-but-unstarted thunk}: a failing computation stops scheduling
    work instead of running the rest of the batch against a doomed result.
    Thunks already executing on other workers are not interrupted; their
    errors, if any, are dropped in favour of the first.  {!wait_idle} /
    {!shutdown} re-raise the stored exception {e with its original
    backtrace}, after which the pool is clean and fully reusable.

    Passing [?faults] subjects every executed thunk to the seeded fault
    plan (site ["pool"], task = the thunk's submission index) — the chaos
    entry point for the raw pool layer; the DAG executors have their own,
    task-name-aware hook.

    Passing [?bus] narrates the pool's lifecycle on the telemetry bus
    (component ["pool"]): [create]/[shutdown] at Info, per-worker
    [worker_start]/[worker_stop] at Debug, fail-fast [cancelled] batches at
    Warn and the first recorded [error] at Error. *)

type t

val create :
  ?obs:Geomix_obs.Metrics.t -> ?bus:Geomix_obs.Events.t ->
  ?faults:Geomix_fault.Fault.t -> ?num_workers:int ->
  unit -> t
(** [create ()] sizes the pool to [Domain.recommended_domain_count - 1]
    workers (never negative). *)

val num_workers : t -> int

val cancelled : t -> int
(** Thunks discarded by fail-fast cancellation over the pool's lifetime. *)

val self_index : t -> int
(** Dense index of the calling domain among this pool's workers — the
    resource id under which observability hooks record the current task.
    0 on the caller domain of a serial pool (and on any domain that is not
    a pool worker). *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a thunk.  Exceptions escaping a thunk are caught, stored
    together with their backtrace, and re-raised by the next {!wait_idle}
    or {!shutdown}; the first one also cancels all queued thunks. *)

val wait_idle : t -> unit
(** Block until every submitted thunk has finished or been cancelled (in
    the serial pool this drains the queue on the caller).  Re-raises the
    first stored thunk exception, if any, with its original backtrace. *)

val shutdown : t -> unit
(** Drain, stop and join the workers.  Idempotent. *)

val with_pool :
  ?obs:Geomix_obs.Metrics.t -> ?bus:Geomix_obs.Events.t ->
  ?faults:Geomix_fault.Fault.t -> ?num_workers:int ->
  (t -> 'a) -> 'a
(** Scoped creation: shuts the pool down on exit or exception. *)

(** {1 Job-scoped execution}

    A {!job} is a completion scope over a subset of the pool's thunks —
    the primitive that lets {e independent computations share one pool}.
    {!wait_idle} waits for every thunk the pool has ever been given and
    re-raises whichever error came first, pool-wide; a server handling
    concurrent requests on a shared pool needs neither: each request
    submits its thunks under its own job and {!join_job}s only those.

    Failure semantics are job-scoped: an exception escaping a job thunk —
    including a [?faults] injection — is stored in the {e job} (never in
    the pool's fail-fast slot), subsequent thunks {e of that job} are
    skipped instead of run, and {!join_job} re-raises the job's first
    error with its original backtrace.  Thunks of other jobs — and plain
    {!submit} thunks — are unaffected.  In the other direction, a
    pool-wide fail-fast cancellation (first error from a plain {!submit}
    thunk) discards queued job thunks but still settles their jobs'
    accounting: they count as skipped and {!join_job} returns rather than
    waiting forever. *)

type job

val new_job : ?span:Geomix_obs.Span.t -> t -> job
(** A fresh, empty completion scope.  Cheap; one per request.  With
    [?span], every item run under the job accumulates its queue-wait and
    run time into the span ({!Geomix_obs.Span.note_exec}) — the pool then
    takes the same two clock readings it takes when instrumented, shared
    between the registry histograms and the span. *)

val job_span : job -> Geomix_obs.Span.t option
(** The trace context the job was created with.  A job-scoped executor
    reads it back here instead of taking the span as a second argument:
    {!Geomix_core.Mp_cholesky.factorize_robust}[ ~job] credits the job's
    span with every RAW-edge transfer, task completion and retry. *)

val submit_job : t -> job -> (unit -> unit) -> unit
(** Enqueue a thunk under the job's scope.  A job is {e sequentially}
    reusable: once {!join_job} has returned, the pending count is back to
    zero and the error slot is clear, so the same job may scope a further
    wave of thunks — how the server chunks Monte-Carlo fan-out under
    brown-out ({!Geomix_serve.Breaker}).  Submitting while another thread
    is still inside {!join_job} for the same job is not allowed. *)

val join_job : t -> job -> unit
(** Block until every thunk submitted under this job has finished or been
    skipped, then re-raise the job's first error, if any, with its
    original backtrace.  On a serial pool the caller drains the queue
    itself (items of other jobs encountered on the way are executed too).
    Unlike {!wait_idle}, completion or failure of {e other} jobs' thunks
    is neither awaited nor observed. *)

val job_skipped : job -> int
(** Thunks of this job discarded because the job had already failed.
    Stable once {!join_job} has returned. *)
