package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"specdsm/internal/fault"
)

// Result is one settled job as the dispatcher delivers it: either the
// worker's gob-encoded row, or the job's failure text. A non-empty Err
// is a job-level outcome (the job ran and failed fatally after its
// retry budget), never a transport condition — transport failures are
// re-dispatched, not delivered.
type Result struct {
	Payload []byte
	Err     string
}

// Dispatcher defaults.
const (
	DefaultBatchSize        = 4
	DefaultHeartbeatTimeout = 5 * time.Second
	DefaultStealAfter       = 2 * time.Second
	DefaultMaxRedispatch    = 3
	defaultDialTimeout      = 5 * time.Second
	// claimPollEvery is how often an idle connection or the local
	// lifeline re-checks the board for claimable work. Pure robustness
	// timing: it never influences delivery order or content.
	claimPollEvery = 2 * time.Millisecond
	// backoffBase is the reconnect backoff unit; attempt k waits
	// base<<min(k,5) plus seeded jitter.
	backoffBase = 25 * time.Millisecond
	// dialSite salts the reconnect-jitter hash away from the fault
	// injector's decision sites.
	dialSite uint64 = 0xD1A7
)

// Dispatcher fans a sweep's job indices across remote shards under the
// sweep engine's index-ordered delivery contract. Robustness model:
//
//   - Job-level failures (the job ran on a shard and failed after its
//     retry budget) are authoritative and delivered — the same jobs
//     fail with the same texts a local run would produce, because every
//     shard executes the identical deterministic job function.
//   - Transport failures (connection drop, heartbeat timeout, refused
//     handshake) are never delivered: the affected lease is requeued
//     and the jobs re-dispatched to surviving shards, down to the
//     in-process Local runner when no shard is reachable.
//   - Duplicate completions (a stale shard answering after its lease
//     was stolen) resolve first-write-wins per index; delivery is
//     strictly in index order either way, so duplicates and steals
//     cannot reorder or repeat output.
type Dispatcher struct {
	// Hosts lists the shard addresses (host:port). An empty list runs
	// everything on Local.
	Hosts []string
	// Spec is the opaque study spec shipped in the handshake; workers
	// rebuild the job function from it (see Server.NewRunner).
	Spec []byte
	// Local executes jobs in-process: the degradation floor when every
	// shard is unreachable, and the executor of poison jobs that have
	// exhausted MaxRedispatch transport re-dispatches. Required.
	Local Runner
	// BatchSize is how many job indices one exec frame carries
	// (0 selects DefaultBatchSize).
	BatchSize int
	// Window bounds how far dispatch runs ahead of the ordered delivery,
	// capping buffered results like the local pool's merge window
	// (0 selects max(4×BatchSize×shards, 64)).
	Window int
	// HeartbeatTimeout is the per-frame read deadline on shard
	// connections; a shard silent for this long (no result, no
	// heartbeat) is declared dead and its lease requeued (0 selects
	// DefaultHeartbeatTimeout).
	HeartbeatTimeout time.Duration
	// StealAfter is the lease age past which an idle shard may steal a
	// straggler's job (0 selects DefaultStealAfter).
	StealAfter time.Duration
	// MaxRedispatch caps transport-failure re-dispatches per job; a job
	// that keeps killing shards falls through to Local (0 selects
	// DefaultMaxRedispatch).
	MaxRedispatch int
	// Seed drives the deterministic reconnect-backoff jitter.
	Seed uint64
	// KeepGoing mirrors the sweep's keep-going mode: when false, a
	// delivered job failure will abort the sweep, so dispatch past the
	// lowest failed index stops early (delivery semantics are unchanged
	// — this only avoids wasted work).
	KeepGoing bool
	// OnJobDone, when non-nil, fires once per successfully settled job
	// with the worker-measured duration — first-write-wins, so a
	// duplicate completion never double-fires. Called from dispatcher
	// goroutines, concurrently and out of index order.
	OnJobDone func(index int, d time.Duration)
	// Inject, when non-nil, dresses every dialed connection in its
	// connection-fault schedule (fault.Wrap) — the dispatcher-side seam
	// of the chaos harness.
	Inject *fault.Injector
	// Dial overrides connection establishment (tests script shards
	// through net.Pipe). Nil selects TCP with a timeout.
	Dial func(addr string) (net.Conn, error)
	// Logf, when non-nil, receives shard lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (d *Dispatcher) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

func (d *Dispatcher) batchSize() int {
	if d.BatchSize > 0 {
		return d.BatchSize
	}
	return DefaultBatchSize
}

func (d *Dispatcher) window() int {
	if d.Window > 0 {
		return d.Window
	}
	w := 4 * d.batchSize() * max(len(d.Hosts), 1)
	if w < 64 {
		w = 64
	}
	return w
}

func (d *Dispatcher) heartbeatTimeout() time.Duration {
	if d.HeartbeatTimeout > 0 {
		return d.HeartbeatTimeout
	}
	return DefaultHeartbeatTimeout
}

func (d *Dispatcher) stealAfter() time.Duration {
	if d.StealAfter > 0 {
		return d.StealAfter
	}
	return DefaultStealAfter
}

func (d *Dispatcher) maxRedispatch() int {
	if d.MaxRedispatch > 0 {
		return d.MaxRedispatch
	}
	return DefaultMaxRedispatch
}

func (d *Dispatcher) dial(addr string) (net.Conn, error) {
	if d.Dial != nil {
		return d.Dial(addr)
	}
	return net.DialTimeout("tcp", addr, defaultDialTimeout)
}

// Run executes job indices [start, n) and delivers every result to
// deliver strictly in index order on the calling goroutine — the same
// contract as the local pool behind sweep.Run, so the caller's
// emit/checkpoint plumbing is oblivious to sharding. A non-nil error from deliver stops the
// sweep and is returned. Run returns when all jobs are delivered,
// deliver errors, or ctx is cancelled.
func (d *Dispatcher) Run(ctx context.Context, start, n int, deliver func(i int, r Result) error) error {
	if n <= start {
		return ctx.Err()
	}
	if d.Local == nil {
		return errors.New("remote: dispatcher needs a Local runner (degradation floor)")
	}
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()

	b := newBoard(start, n, d.window())
	if !d.KeepGoing {
		b.stopOnError = true
	}
	stopWake := context.AfterFunc(ctx, b.wake)
	defer stopWake()

	// live counts currently-connected shards; attempted counts hosts
	// whose first dial has resolved. The local lifeline holds back until
	// every host has had a chance to answer, so a healthy fleet actually
	// receives the work — but a missing fleet degrades to local
	// execution without waiting out long timeouts.
	var live, attempted atomic.Int64
	for k, host := range d.Hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.shardLoop(ctx, k, host, b, &live, &attempted)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.localLoop(ctx, b, &live, &attempted)
	}()

	for i := start; i < n; i++ {
		r, ok := b.awaitDone(ctx, i)
		if !ok {
			return ctx.Err()
		}
		if err := deliver(i, r); err != nil {
			return err
		}
		b.advance(i + 1)
	}
	return nil
}

// shardLoop owns one host: connect, serve batches, and on any transport
// failure reconnect with seeded exponential backoff, until the sweep
// finishes or the host refuses the handshake (permanent).
func (d *Dispatcher) shardLoop(ctx context.Context, k int, host string, b *board, live, attempted *atomic.Int64) {
	first := true
	for attempt := 0; ctx.Err() == nil && !b.finished(); attempt++ {
		err := d.serveShard(ctx, host, b, live)
		if first {
			attempted.Add(1)
			first = false
		}
		if err == nil || ctx.Err() != nil || b.finished() {
			// Sweep finished or ctx cancelled: an error from Run's closing
			// cancel tearing down a read is not a transport failure.
			return
		}
		if errors.Is(err, errRefused) {
			d.logf("shard %s: %v (giving up on this host)", host, err)
			return
		}
		d.logf("shard %s: %v (reconnect %d)", host, err, attempt+1)
		d.backoff(ctx, k, attempt)
	}
}

// errRefused marks a worker rejecting the handshake — wrong protocol
// version or a spec its build cannot run. Retrying cannot help.
var errRefused = errors.New("handshake refused")

// serveShard runs one connection session: handshake, then claim/exec
// cycles until the board has no more work for us. Returns nil on a
// clean end (sweep finished or ctx cancelled), an error on any
// transport failure (caller reconnects).
func (d *Dispatcher) serveShard(ctx context.Context, host string, b *board, live *atomic.Int64) error {
	conn, err := d.dial(host)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	conn = fault.Wrap(d.Inject, conn)

	hbTimeout := d.heartbeatTimeout()
	if err := writeMsg(conn, &msg{Op: opHello, Proto: ProtoVersion, Spec: d.Spec}); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(hbTimeout))
	m, err := readMsg(conn)
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	switch m.Op {
	case opHelloOK:
	case opRefuse:
		return fmt.Errorf("%w: %s", errRefused, m.Err)
	default:
		return fmt.Errorf("handshake: unexpected op %d", m.Op)
	}
	live.Add(1)
	defer live.Add(-1)
	d.logf("shard %s: connected", host)

	// outstanding tracks this session's claimed-but-unanswered indices;
	// whatever remains when the session dies is requeued for the
	// survivors.
	outstanding := make(map[int]bool)
	defer func() { b.requeue(outstanding) }()

	var seq uint64
	for ctx.Err() == nil {
		batch := b.claim(time.Now(), d.batchSize(), d.stealAfter(), d.maxRedispatch())
		if batch == nil {
			if b.finished() {
				return nil
			}
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(claimPollEvery):
			}
			continue
		}
		seq++
		for _, i := range batch {
			outstanding[i] = true
		}
		if err := writeMsg(conn, &msg{Op: opExec, Seq: seq, Indices: batch}); err != nil {
			return fmt.Errorf("exec: %w", err)
		}
		for done := false; !done; {
			conn.SetReadDeadline(time.Now().Add(hbTimeout))
			m, err := readMsg(conn)
			if err != nil {
				return fmt.Errorf("read: %w", err)
			}
			switch m.Op {
			case opHeartbeat:
				// Liveness only: it proves the shard is computing, but does
				// not refresh the lease — a straggler that heartbeats
				// without finishing is still eligible for stealing.
			case opJobDone:
				delete(outstanding, m.Index)
				d.complete(b, m)
			case opBatchDone:
				done = true
			default:
				return fmt.Errorf("unexpected op %d", m.Op)
			}
		}
	}
	return nil
}

// complete settles one job on the board and fires OnJobDone exactly
// once per successful index (duplicates lose the first-write-wins race
// and fire nothing).
func (d *Dispatcher) complete(b *board, m *msg) {
	if b.complete(m.Index, Result{Payload: m.Payload, Err: m.Err}) &&
		m.Err == "" && d.OnJobDone != nil {
		d.OnJobDone(m.Index, time.Duration(m.DurNS))
	}
}

// localLoop is the degradation floor: it executes jobs in-process
// whenever no shard is connected (after every host's first dial has
// resolved), and adopts poison jobs whose transport re-dispatch budget
// is spent regardless of fleet health.
func (d *Dispatcher) localLoop(ctx context.Context, b *board, live, attempted *atomic.Int64) {
	nHosts := int64(len(d.Hosts))
	for ctx.Err() == nil && !b.finished() {
		degraded := live.Load() == 0 && attempted.Load() == nHosts
		i, ok := b.claimLocal(time.Now(), degraded, d.maxRedispatch())
		if !ok {
			select {
			case <-ctx.Done():
				return
			case <-time.After(claimPollEvery):
			}
			continue
		}
		start := time.Now()
		payload, err := d.Local.Run(ctx, i)
		if ctx.Err() != nil {
			return
		}
		r := Result{Payload: payload}
		if err != nil {
			r.Err = err.Error()
		}
		if b.complete(i, r) && r.Err == "" && d.OnJobDone != nil {
			d.OnJobDone(i, time.Since(start))
		}
	}
}

// backoff parks a shard's reconnect loop: exponential in the attempt
// number with seeded deterministic jitter, so a flapping host cannot
// hammer the fleet and two dispatchers with the same seed replay the
// same schedule.
func (d *Dispatcher) backoff(ctx context.Context, host, attempt int) {
	shift := attempt
	if shift > 5 {
		shift = 5
	}
	wait := backoffBase << shift
	wait += time.Duration(fault.Mix(d.Seed, dialSite, uint64(host), uint64(attempt)) % uint64(backoffBase))
	select {
	case <-ctx.Done():
	case <-time.After(wait):
	}
}

// Job states on the board.
const (
	statePending uint8 = iota
	stateLeased
	stateDone
)

// board is the dispatcher's job ledger: per-index state, leases with
// timestamps (for stealing), transport-failure counts (for poison
// detection), and the settled results awaiting ordered delivery.
type board struct {
	mu   sync.Mutex
	cond *sync.Cond

	start, n int
	window   int
	nextEmit int
	// stopIdx bounds dispatch in stop-on-error mode: no index at or
	// beyond it is handed out once a failure below it has settled.
	stopIdx     int
	stopOnError bool

	state   []uint8
	res     []Result
	leaseAt []time.Time
	fails   []int // transport-failure (requeue) count per index
}

func newBoard(start, n, window int) *board {
	size := n - start
	b := &board{
		start: start, n: n, window: window,
		nextEmit: start, stopIdx: n,
		state:   make([]uint8, size),
		res:     make([]Result, size),
		leaseAt: make([]time.Time, size),
		fails:   make([]int, size),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *board) idx(i int) int { return i - b.start }

// claim hands out up to batch pending indices within the dispatch
// window, lowest-first. With nothing pending it steals the oldest
// stale lease (one job) so an idle shard relieves a straggler.
func (b *board) claim(now time.Time, batch int, stealAfter time.Duration, maxRedispatch int) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	limit := min(b.stopIdx, b.nextEmit+b.window)
	var got []int
	for i := b.nextEmit; i < limit && len(got) < batch; i++ {
		j := b.idx(i)
		if b.state[j] == statePending && b.fails[j] < maxRedispatch {
			b.state[j] = stateLeased
			b.leaseAt[j] = now
			got = append(got, i)
		}
	}
	if got != nil {
		return got
	}
	steal := -1
	for i := b.nextEmit; i < limit; i++ {
		j := b.idx(i)
		if b.state[j] == stateLeased && now.Sub(b.leaseAt[j]) >= stealAfter {
			if steal < 0 || b.leaseAt[j].Before(b.leaseAt[b.idx(steal)]) {
				steal = i
			}
		}
	}
	if steal >= 0 {
		b.leaseAt[b.idx(steal)] = now
		return []int{steal}
	}
	return nil
}

// claimLocal hands the local lifeline one job: the lowest pending index
// when the fleet is degraded (no live shard), or a poison index whose
// transport re-dispatch budget is spent regardless of fleet health.
func (b *board) claimLocal(now time.Time, degraded bool, maxRedispatch int) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	limit := min(b.stopIdx, b.nextEmit+b.window)
	for i := b.nextEmit; i < limit; i++ {
		j := b.idx(i)
		if b.state[j] == statePending && (degraded || b.fails[j] >= maxRedispatch) {
			b.state[j] = stateLeased
			b.leaseAt[j] = now
			return i, true
		}
	}
	return 0, false
}

// requeue returns a dead session's unanswered leases to the pending
// pool, counting the transport failure against each job. Jobs another
// holder settled in the meantime stay settled.
func (b *board) requeue(outstanding map[int]bool) {
	if len(outstanding) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range outstanding {
		j := b.idx(i)
		if b.state[j] == stateLeased {
			b.state[j] = statePending
			b.fails[j]++
		}
	}
}

// complete settles index i first-write-wins, reporting whether this
// call won (false = duplicate, dropped).
func (b *board) complete(i int, r Result) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	j := b.idx(i)
	if b.state[j] == stateDone {
		return false
	}
	b.state[j] = stateDone
	b.res[j] = r
	if r.Err != "" && b.stopOnError && i+1 < b.stopIdx {
		// Delivery will abort at i; dispatching beyond it is wasted work.
		// Jobs below i still run — an in-flight lower failure must win,
		// exactly as in the local pool's merge.
		b.stopIdx = i + 1
	}
	b.cond.Broadcast()
	return true
}

// awaitDone blocks until index i settles or ctx ends.
func (b *board) awaitDone(ctx context.Context, i int) (Result, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	j := b.idx(i)
	for b.state[j] != stateDone && ctx.Err() == nil {
		b.cond.Wait()
	}
	if b.state[j] != stateDone {
		return Result{}, false
	}
	return b.res[j], true
}

// advance publishes the ordered-delivery progress, sliding the dispatch
// window forward.
func (b *board) advance(next int) {
	b.mu.Lock()
	b.nextEmit = next
	b.mu.Unlock()
	b.cond.Broadcast()
}

// finished reports whether every index has been delivered.
func (b *board) finished() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextEmit >= b.n
}

// wake re-evaluates every waiter's condition (ctx cancellation).
func (b *board) wake() { b.cond.Broadcast() }
