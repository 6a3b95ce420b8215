// Package sweep is a deterministic worker pool for the paper studies.
//
// Every experiment in the evaluation (Figures 7-9, Tables 3-5, the rtl,
// scaling, and multi-seed sweeps) is a set of independent
// app×mode×depth×seed simulations. Run is the one entry point that
// executes such a set: a Job names the job count N, the job function
// Fn, where results go (Emit, and Fail in keep-going mode), optional
// worker-local state (NewState), an optional Checkpoint, and optionally
// an Executor other than the local pool. Run guarantees that the
// observable outcome — results, their order, and which error is
// reported — is identical to running the jobs sequentially:
//
//   - Jobs are claimed in index order and results are merged back in
//     index order, regardless of completion order.
//   - When jobs fail, the failure with the lowest index wins, exactly
//     as a sequential loop would have reported it. Dispatch of new jobs
//     stops, but lower-index jobs already claimed still run so an
//     earlier (more authoritative) failure is never lost.
//   - A panicking job is captured as a *PanicError rather than taking
//     down the process.
//
// Worker-local state: each worker goroutine lazily builds one state
// value (typically a machine.Arena that amortizes simulated-machine
// construction across the worker's jobs) and threads it through every
// job it claims. State never crosses workers; since job results must not
// depend on which worker ran them, the ordered-merge guarantee is
// unchanged.
//
// Streaming is bounded-memory: a merge window derived from the worker
// count caps how far job claiming may run ahead of the ordered merge,
// so completed-but-unemitted results never exceed the window regardless
// of the total job count — the property that lets million-job sweeps
// aggregate online instead of buffering every result. One worker gets a
// window of one, which makes the sweep a plain in-order loop.
//
// Checkpointing makes sweeps restartable, and Run is the only place
// that does checkpoint work. A Checkpoint persists the settled prefix
// (versioned header, CRC-verified frames, every flush an atomic
// temp-file+rename snapshot); Run checks that it fits the sweep,
// replays the saved frames, runs only the missing indices, appends
// every newly settled frame, and flushes once more at the end even on
// error. An interrupted-then-resumed sweep therefore emits exactly the
// sequence an uninterrupted run would have, at any worker count and on
// any executor. Resume validation is strict: truncated, corrupt, or
// mismatched (wrong study, wrong version) files fail with descriptive
// errors instead of silently recomputing.
//
// Executors: by default Run fans the remaining jobs out on the local
// pool. A Job may instead supply an Executor — the remote shard
// dispatcher is the one in use — which receives the resume offset and
// the count of jobs left and must honour the same in-order delivery
// contract. Retry and fault-injection decisions are keyed on the index
// relative to the resume point on every executor (RunOne is the
// per-job entry point a shard worker uses), so a resumed sweep's
// failure schedule does not depend on where its jobs ran.
//
// Pool.OnJobDone is an optional per-job completion hook (study index +
// wall-clock duration) for live progress on big matrices; ProgressETA
// adapts it to a log/slog logger with completed/total counts plus an
// ETA from a sliding window of recent completions. Jobs replayed from a
// checkpoint are not reported. The hook observes jobs, never influences
// them.
//
// # Failure model
//
// Job errors are classified transient or fatal. An error wrapped with
// Transient (detectable via IsTransient) is worth retrying: with
// Pool.Retries > 0 the pool reruns the job up to that many extra
// attempts before giving up, with deterministic backoff — seeded yield
// bursts derived from (RetrySeed, index, attempt), never wall-clock
// sleeps, so a retried sweep stays bit-reproducible. Everything else,
// including *PanicError, is fatal on the first attempt. Because retries
// happen inside the job slot, a sweep whose transient failures all
// resolve within budget produces output byte-identical to one that
// never failed.
//
// Fatal errors abort the sweep with the lowest-index failure, unless
// the Job supplies a FailFunc: then each fatal failure is delivered to
// the fail sink in strict index order, interleaved with emitted
// successes exactly as a sequential loop would observe them, and the
// sweep keeps going. Checkpoints record such failures as failure frames
// so a resumed run replays the same outcome rather than retrying failed
// indices.
//
// Resume has a second, forgiving mode: SalvageCheckpoint scans a
// damaged checkpoint and adopts the longest valid frame prefix,
// truncating torn or corrupt tails (a crash mid-rename, a bad disk) so
// the sweep recomputes only what was actually lost. A checkpoint whose
// header reads cleanly but names a different study key is never
// salvaged — that is a configuration error (*KeyMismatchError, with a
// field-by-field Diff), not damage.
//
// The fault package supplies the matching test seams: an Injector
// (Pool.Inject) deterministically injects transient job errors, job
// panics, and scheduling delays, and the fault.FS every checkpoint
// constructor takes injects short writes and failed renames under the
// checkpoint writer. All decisions are pure hashes of (seed, site,
// index, attempt), so every injected failure schedule replays exactly.
package sweep
