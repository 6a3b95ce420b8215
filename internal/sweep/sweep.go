package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specdsm/internal/fault"
	"specdsm/internal/report"
)

// Pool sizes the worker set Run fans jobs out on. The zero value and
// New(0) both select runtime.NumCPU() workers. Pools carry no per-sweep
// state and may be reused and shared freely; a non-nil OnJobDone must
// itself be safe for concurrent use.
type Pool struct {
	workers int
	// OnJobDone, when non-nil, is invoked after every successfully
	// completed job with the job's study index and wall-clock duration,
	// from the goroutine that ran the job — concurrently and out of index
	// order on a multi-worker pool. It exists for progress reporting
	// (see ProgressETA) and must not affect results.
	OnJobDone func(index int, d time.Duration)
	// Retries is the per-job retry budget for transient failures: a job
	// whose error satisfies IsTransient is re-run in place — same index,
	// same worker, same worker-local state — up to Retries more times
	// before the failure becomes permanent. Fatal errors (anything not
	// marked Transient, including *PanicError) are never retried.
	// Because the retry happens inside the job slot, the ordered merge
	// is undisturbed: a sweep whose transient faults all succeed within
	// budget emits output byte-identical to a fault-free run.
	Retries int
	// RetrySeed seeds the deterministic backoff between retry attempts.
	// Backoff is measured in scheduler yields (attempt count), never
	// wall time, so retried sweeps stay reproducible and fast.
	RetrySeed uint64
	// Inject, when non-nil, threads a deterministic fault injector into
	// every job attempt: seeded transient errors, panics, and
	// scheduling delays (see internal/fault). The disabled path costs
	// one nil check per job.
	Inject *fault.Injector
}

// New returns a pool with the given worker count; n <= 0 selects
// runtime.NumCPU().
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return &Pool{workers: n}
}

// Workers reports the configured worker count.
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return runtime.NumCPU()
	}
	return p.workers
}

// mergeWindow bounds how far job claiming may run ahead of the ordered
// merge: a worker only starts job i once i falls within the window of
// the next index to be emitted, so completed-but-unemitted results never
// exceed it and a sweep's buffer memory does not grow with its job
// count. One worker gets a window of 1 — each job starts only after its
// predecessor is emitted, so the sweep runs strictly in order and stops
// at the first failure, like a plain loop. More workers get
// max(4×workers, 64). The window only throttles; it never changes
// results or their order.
func mergeWindow(workers int) int {
	if workers == 1 {
		return 1
	}
	return max(4*workers, 64)
}

// mergeGate throttles job claiming so that no job whose index lies at or
// beyond base+window starts before the merge has emitted up to base.
// With emission strictly in index order this caps completed-but-unemitted
// results at window entries. It also carries the sweep's stop point:
// jobs at or beyond limit are not started.
type mergeGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	base   int // results emitted so far
	window int
	limit  int // first index not to start
}

func newMergeGate(window, n int) *mergeGate {
	g := &mergeGate{window: window, limit: n}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// waitTurn blocks until job i may run (i < base+window), the sweep
// stops short of i, or ctx is cancelled, and reports whether the job
// should still run.
func (g *mergeGate) waitTurn(ctx context.Context, i int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i >= g.base+g.window && i < g.limit && ctx.Err() == nil {
		g.cond.Wait()
	}
	return i < g.limit && ctx.Err() == nil
}

// advance publishes the new emitted count and wakes gated workers.
func (g *mergeGate) advance(base int) {
	g.mu.Lock()
	g.base = base
	g.mu.Unlock()
	g.cond.Broadcast()
}

// stop lowers the limit to i when the sweep ends early (a failure or an
// emit error at i): later jobs are not started, and gated workers wake
// to exit. Jobs below i still run — a lower-index failure among them
// must be found, since it is the one a sequential loop would report.
func (g *mergeGate) stop(i int) {
	g.mu.Lock()
	g.limit = min(g.limit, i)
	g.mu.Unlock()
	g.cond.Broadcast()
}

// wake re-evaluates every waiter's condition (e.g. after ctx cancel).
func (g *mergeGate) wake() { g.cond.Broadcast() }

// transientError marks an error as retryable. It is created by
// Transient and detected by IsTransient; the wrapped error stays
// reachable through errors.Is/As.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient marks err as a transient failure: one that a bounded
// retry may clear (a lost RPC, a briefly unavailable resource, an
// injected fault). The pool re-runs transient failures in place when
// Pool.Retries allows; everything else — including *PanicError — is
// fatal on first occurrence. Transient(nil) is nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err carries the Transient marker anywhere
// in its chain.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// PanicError is a panic recovered from a job, preserving the job index,
// the panic value, and the goroutine stack at the panic site. A
// PanicError is always fatal: panics indicate bugs, not conditions a
// retry could clear.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error includes the job index, the panic value, and a trimmed one-line
// stack — enough to locate a panicking worker from study output alone.
// The trimmed form is deterministic (no addresses, no goroutine IDs,
// and no frames from the pool machinery, which differ between the
// local pool and a remote shard), so output containing it stays
// byte-identical at every worker count. The full raw stack remains in
// Stack.
func (e *PanicError) Error() string {
	s := trimStack(e.Stack)
	if s == "" {
		return fmt.Sprintf("sweep: job %d panicked: %v", e.Index, e.Value)
	}
	return fmt.Sprintf("sweep: job %d panicked: %v [%s]", e.Index, e.Value, s)
}

// trimStackFrames caps how many frames the one-line stack keeps.
const trimStackFrames = 6

// trimStack compresses a debug.Stack dump into a deterministic single
// line: up to trimStackFrames frames of "func (file:line)" joined by
// " < ", innermost first. Frames above the panic site (runtime
// machinery, the pool's recover) and below the pool's job runner are
// dropped, and addresses/offsets are stripped, so two identical panics
// — whatever goroutine or worker path they happen on — trim to the same
// text.
func trimStack(stack []byte) string {
	lines := strings.Split(string(bytes.TrimSpace(stack)), "\n")
	if len(lines) > 0 && strings.HasPrefix(lines[0], "goroutine ") {
		lines = lines[1:] // drop the "goroutine N [running]:" header
	}
	var frames []string
	for i := 0; i+1 < len(lines); i += 2 {
		fn, loc := lines[i], strings.TrimSpace(lines[i+1])
		switch {
		case strings.HasPrefix(fn, "runtime"),
			strings.HasPrefix(fn, "panic("),
			strings.Contains(fn, "debug.Stack"),
			strings.Contains(fn, "internal/sweep.runOnce") && strings.Contains(fn, ".func"):
			// Machinery above the panic site: the stack grabber, the
			// pool's deferred recover, and the runtime's panic plumbing.
			continue
		}
		if strings.Contains(fn, "specdsm/internal/sweep.") {
			// The pool's own job runner: everything below differs
			// between executors and call sites. If the panic
			// originated here (an injected panic), keep this one frame
			// so the line is never empty.
			if len(frames) == 0 {
				frames = append(frames, frameText(fn, loc))
			}
			break
		}
		frames = append(frames, frameText(fn, loc))
		if len(frames) == trimStackFrames {
			frames = append(frames, "...")
			break
		}
	}
	return strings.Join(frames, " < ")
}

// frameText renders one stack frame as "func (file:line)", dropping the
// argument list (which prints raw pointer words) and the "+0x.." offset.
func frameText(fn, loc string) string {
	if i := strings.LastIndexByte(fn, '('); i > 0 {
		fn = fn[:i]
	}
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.Index(loc, " +0x"); i > 0 {
		loc = loc[:i]
	}
	if i := strings.LastIndexByte(loc, '/'); i >= 0 {
		loc = loc[i+1:]
	}
	if loc == "" {
		return fn
	}
	return fn + " (" + loc + ")"
}

// FailFunc receives a fatal job failure in keep-going mode. It is
// called from the same goroutine as emit, in strict index order
// interleaved with emissions: for every index exactly one of emit or
// fail runs. Returning a non-nil error stops the sweep, exactly as an
// emit error would.
type FailFunc func(index int, err error) error

// Job describes one sweep for Run.
type Job[S, T any] struct {
	// N is the job count; jobs are the indices [0, N).
	N int
	// NewState builds one worker-local state value, lazily, before a
	// worker's first job; every job the worker claims receives it. It
	// exists for expensive reusable scaffolding — a machine.Arena that
	// amortizes simulated-machine construction is the motivating case.
	// State never crosses workers, and Fn must keep results independent
	// of which worker ran the job. Nil gives every job the zero S.
	NewState func() S
	// Fn computes job i.
	Fn func(ctx context.Context, s S, i int) (T, error)
	// Emit receives each result in index order, on the calling
	// goroutine, as soon as the result and all its predecessors are
	// settled. A non-nil error stops the sweep and is returned.
	Emit func(i int, v T) error
	// Fail, when non-nil, selects keep-going mode: a job whose failure
	// is fatal (after the pool's retry budget) is routed to Fail in its
	// index slot instead of stopping the sweep, and later jobs still run.
	// Run then returns nil even if jobs failed — the caller owns the
	// failure manifest Fail accumulated. Nil stops the sweep at the
	// lowest-index failure and returns its error.
	Fail FailFunc
	// Checkpoint, when non-nil, makes the sweep restartable: its saved
	// frames are replayed through Emit and Fail without re-running their
	// jobs, only the remaining indices run, every newly settled row or
	// failure is appended, and the checkpoint is flushed once more when
	// the sweep ends, successfully or not.
	Checkpoint *Checkpoint
	// Exec, when non-nil, runs the jobs in place of the local pool (a
	// remote shard dispatcher); Fn and NewState are then unused.
	Exec Executor[T]
}

// Executor runs the n jobs a sweep has left after its checkpoint
// replay: relative index j is study index base+j. It must settle every
// relative index through exactly one of emit or fail, in index order,
// and stop at the first failure when fail is nil — the contract of the
// local pool. p carries the retry and fault policy and an OnJobDone
// hook that already reports study indices; fault and retry decisions
// stay keyed on the relative index, as on the local pool.
type Executor[T any] func(ctx context.Context, p *Pool, base, n int, emit func(j int, v T) error, fail FailFunc) error

// Run executes job.N jobs and delivers their outcomes to job.Emit (and
// job.Fail) strictly in index order, whatever the worker count: the
// delivered sequence — and, with a nil Fail, which error is returned —
// is the one a sequential loop over the jobs would have produced.
// Cancelling ctx stops dispatch of not-yet-started jobs and is reported
// as ctx.Err() unless a job failure takes precedence.
//
// Because replayed rows are byte-identical to the rows the original run
// emitted and new rows come from the same deterministic jobs, an
// interrupted-then-resumed sweep emits exactly the sequence an
// uninterrupted run would have — at any worker count and on either
// executor.
func Run[S, T any](ctx context.Context, p *Pool, job Job[S, T]) error {
	ck := job.Checkpoint
	emit, fail := job.Emit, job.Fail
	base := 0
	if ck != nil {
		if ck.rows > job.N {
			return ck.mismatch("holds %d frames but the sweep has only %d jobs", ck.rows, job.N)
		}
		if err := replay(ck, emit, fail); err != nil {
			return err
		}
		if ck.rows == job.N {
			return nil
		}
		base = ck.rows
		emit = func(j int, v T) error {
			if err := AppendRow(ck, v); err != nil {
				return err
			}
			return job.Emit(base+j, v)
		}
		if fail != nil {
			fail = func(j int, ferr error) error {
				if err := ck.AppendFail(ferr); err != nil {
					return err
				}
				return job.Fail(base+j, ferr)
			}
		}
		if hook := p.jobDoneHook(); hook != nil {
			q := *p
			q.OnJobDone = func(j int, d time.Duration) { hook(base+j, d) }
			p = &q
		}
	}
	var err error
	if job.Exec != nil {
		err = job.Exec(ctx, p, base, job.N-base, emit, fail)
	} else {
		fn, newState := job.Fn, job.NewState
		if base > 0 {
			fn = func(ctx context.Context, s S, j int) (T, error) { return job.Fn(ctx, s, base+j) }
		}
		if newState == nil {
			newState = func() (s S) { return s }
		}
		err = stream(ctx, p, job.N-base, newState, fn, emit, fail)
	}
	if ck != nil {
		// Persist whatever settled even when the sweep failed or was
		// cancelled — that is the resume point. The sweep's own error
		// wins.
		if ferr := ck.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

// stream is the local-pool executor: n jobs fanned out over the pool's
// workers and merged back in index order.
func stream[S, T any](ctx context.Context, p *Pool, n int, newState func() S, fn func(ctx context.Context, s S, i int) (T, error), emit func(i int, v T) error, fail FailFunc) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := min(p.Workers(), n)

	type item struct {
		i   int
		v   T
		err error
	}
	// The merge window bounds buffered results: jobs at or beyond
	// base+window do not start until the merge catches up, so at most
	// window completed results plus workers in-flight jobs exist at any
	// moment. Sizing the channel to that bound means workers never block
	// on send and the merger is free to drain until close without any
	// further worker-side coordination.
	window := mergeWindow(workers)
	results := make(chan item, window+workers)
	gate := newMergeGate(window, n)
	stopWake := context.AfterFunc(ctx, gate.wake)
	defer stopWake()
	var (
		next atomic.Int64 // next index to claim
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker-local state is built lazily: a worker that never
			// claims a job (all indices taken, or an early failure) never
			// pays for it.
			var (
				state    S
				hasState bool
			)
			for {
				i := int(next.Add(1)) - 1
				if i >= n || !gate.waitTurn(ctx, i) {
					return
				}
				if !hasState {
					state = newState()
					hasState = true
				}
				v, err := runJob(ctx, p, state, i, fn)
				results <- item{i: i, v: v, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Ordered merge. pending buffers out-of-order completions (carrying
	// their errors in keep-going mode); failIdx tracks the lowest failed
	// index seen so far. With a nil fail, dispatch stops on the first
	// failure, but lower-index jobs still run and may lower failIdx
	// further — exactly matching what a sequential loop would have hit
	// first. With a non-nil fail, failures are buffered like
	// results and delivered to fail when their turn in the order comes.
	pending := make(map[int]item, workers)
	nextEmit := 0
	failIdx := n
	var failErr, emitErr error
	for it := range results {
		if it.err != nil && fail == nil {
			if it.i < failIdx {
				failIdx, failErr = it.i, it.err
			}
			gate.stop(failIdx)
			continue
		}
		if it.i >= failIdx || emitErr != nil {
			continue
		}
		pending[it.i] = it
		for emitErr == nil && nextEmit < failIdx {
			cur, ok := pending[nextEmit]
			if !ok {
				break
			}
			delete(pending, nextEmit)
			var err error
			if cur.err != nil {
				err = fail(nextEmit, cur.err)
			} else {
				err = emit(nextEmit, cur.v)
			}
			if err != nil {
				emitErr = err
				gate.stop(nextEmit)
				break
			}
			nextEmit++
			gate.advance(nextEmit)
		}
	}
	switch {
	case emitErr != nil && nextEmit < failIdx:
		// emit(nextEmit) failed with every job before it successful: a
		// sequential loop would have died there too, before reaching any
		// later job failure.
		return emitErr
	case failErr != nil:
		return failErr
	case emitErr != nil:
		return emitErr
	default:
		return ctx.Err()
	}
}

// RunOne executes a single job under the pool's retry policy — the same
// code path Run's local pool takes per index, exposed for executors that
// dispatch indices one at a time (a remote shard worker). The pool
// contributes Retries, RetrySeed, Inject, and OnJobDone; workers and
// windowing do not apply. Because the retry loop, injector seams, panic
// capture, and backoff schedule are identical to the in-process pool's,
// a job's settled outcome (value or error text) is the same wherever it
// executes.
func RunOne[S, T any](ctx context.Context, p *Pool, s S, i int, fn func(ctx context.Context, s S, i int) (T, error)) (T, error) {
	return runJob(ctx, p, s, i, fn)
}

// runJob runs job i under the pool's retry policy: runOnce per attempt,
// re-running in place while the error is Transient, budget remains, and
// the context is live. Retrying in place — same index, same worker,
// same worker-local state — leaves the ordered merge untouched, so a
// sweep whose transient faults clear within budget is indistinguishable
// from a fault-free one.
func runJob[S, T any](ctx context.Context, p *Pool, s S, i int, fn func(ctx context.Context, s S, i int) (T, error)) (T, error) {
	var retries int
	if p != nil {
		retries = p.Retries
	}
	for attempt := 0; ; attempt++ {
		v, err := runOnce(ctx, p, s, i, attempt, fn)
		if err == nil || attempt >= retries || !IsTransient(err) || ctx.Err() != nil {
			return v, err
		}
		var seed uint64
		if p != nil {
			seed = p.RetrySeed
		}
		backoff(seed, i, attempt)
	}
}

// runOnce executes a single attempt of job i: injector seams first
// (delay, panic, transient error), then the job itself, with panics
// converted to *PanicError and the completion hook fired on success.
func runOnce[S, T any](ctx context.Context, p *Pool, s S, i, attempt int, fn func(ctx context.Context, s S, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	if inj := p.injector(); inj != nil {
		inj.JobDelay(i, attempt)
		if inj.JobPanic(i, attempt) {
			panic(fmt.Sprintf("%v: injected panic (job %d, attempt %d)", fault.ErrInjected, i, attempt))
		}
		if inj.JobTransient(i, attempt) {
			return v, Transient(fmt.Errorf("%w: transient job fault (job %d, attempt %d)", fault.ErrInjected, i, attempt))
		}
	}
	hook := p.jobDoneHook()
	if hook == nil {
		return fn(ctx, s, i)
	}
	start := time.Now()
	v, err = fn(ctx, s, i)
	if err == nil {
		hook(i, time.Since(start))
	}
	return v, err
}

// backoffSite salts the backoff-length hash away from the injector's
// decision sites.
const backoffSite uint64 = 0xBACC0FF

// backoff parks job i between transient attempts: a deterministic burst
// of scheduler yields whose length grows with the attempt number plus a
// small seeded jitter. Measuring backoff in yields rather than wall
// time keeps retried sweeps reproducible and keeps tests fast.
func backoff(seed uint64, i, attempt int) {
	shift := attempt
	if shift > 5 {
		shift = 5
	}
	n := (1 << shift) + int(fault.Mix(seed, backoffSite, uint64(i), uint64(attempt))%8)
	for k := 0; k < n; k++ {
		runtime.Gosched()
	}
}

// jobDoneHook returns the pool's OnJobDone callback, tolerating nil
// pools (which Workers already treats as a default pool).
func (p *Pool) jobDoneHook() func(int, time.Duration) {
	if p == nil {
		return nil
	}
	return p.OnJobDone
}

// injector returns the pool's fault injector, tolerating nil pools.
func (p *Pool) injector() *fault.Injector {
	if p == nil {
		return nil
	}
	return p.Inject
}

// etaWindow is how many recent completion timestamps ProgressETA keeps:
// the ETA tracks the *current* completion rate (workers warmed up, caches
// hot) rather than averaging over the whole sweep's history.
const etaWindow = 32

// ProgressETA returns an OnJobDone callback that logs every completed
// job through logger at Info level: its index, completed/total, its
// wall-clock duration, and an ETA estimated from the completion rate
// over a sliding window of the most recent completions (report.Rolling).
// total is the number of jobs this run will execute — after a
// checkpoint replay, the jobs left — so the last line reads
// completed == total. The callback is safe for concurrent use, so it
// can drive a multi-worker pool directly, and only observes the sweep.
func ProgressETA(logger *slog.Logger, total int) func(index int, d time.Duration) {
	var (
		mu    sync.Mutex
		times = report.NewRolling(etaWindow)
		done  int64
	)
	start := time.Now()
	return func(index int, d time.Duration) {
		elapsed := time.Since(start)
		mu.Lock()
		done++
		n := done
		times.Add(float64(elapsed))
		remaining := float64(total) - float64(n)
		var eta time.Duration
		if span := times.Last() - times.First(); times.N() >= 2 && span > 0 && remaining > 0 {
			// Windowed rate: N()-1 completions over the window's span.
			perJob := span / float64(times.N()-1)
			eta = time.Duration(remaining * perJob)
		} else if n > 0 && remaining > 0 {
			eta = time.Duration(remaining * float64(elapsed) / float64(n))
		}
		mu.Unlock()
		logger.Info("sweep job done",
			"index", index, "completed", n, "total", total,
			"dur", d.Round(time.Millisecond), "eta", eta.Round(100*time.Millisecond))
	}
}
