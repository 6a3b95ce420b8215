package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specdsm/internal/fault"
)

// rowPayload is the deterministic "row" every runner in these tests
// produces for a job index, so any executor — remote shard, resurrected
// shard, local lifeline — yields identical bytes and the merge contract
// can be pinned exactly.
func rowPayload(i int) []byte { return []byte(fmt.Sprintf("row-%04d", i)) }

func testRunner() Runner {
	return RunnerFunc(func(ctx context.Context, i int) ([]byte, error) {
		return rowPayload(i), nil
	})
}

type delivery struct {
	i int
	r Result
}

func collector() (func(int, Result) error, *[]delivery) {
	var got []delivery
	return func(i int, r Result) error {
		got = append(got, delivery{i, r})
		return nil
	}, &got
}

// verifyDeliveries pins the full contract: every index in [start, n)
// delivered exactly once, in ascending order, with the deterministic
// payload. Any duplicate, gap, or reorder fails here.
func verifyDeliveries(t *testing.T, got []delivery, start, n int) {
	t.Helper()
	if len(got) != n-start {
		t.Fatalf("delivered %d results, want %d", len(got), n-start)
	}
	for k, d := range got {
		want := start + k
		if d.i != want {
			t.Fatalf("delivery %d has index %d, want %d (reorder or duplicate)", k, d.i, want)
		}
		if d.r.Err != "" {
			t.Fatalf("index %d delivered failure %q, want success", d.i, d.r.Err)
		}
		if !bytes.Equal(d.r.Payload, rowPayload(d.i)) {
			t.Fatalf("index %d delivered payload %q, want %q", d.i, d.r.Payload, rowPayload(d.i))
		}
	}
}

// startServer runs a worker Server on a loopback listener for the test's
// lifetime and returns its address.
func startServer(t testing.TB, s *Server) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go s.Serve(ctx, lis)
	return lis.Addr().String()
}

func specCheckedServer(t testing.TB, wantSpec string) *Server {
	return &Server{
		NewRunner: func(spec []byte) (Runner, error) {
			if string(spec) != wantSpec {
				return nil, fmt.Errorf("spec %q, want %q", spec, wantSpec)
			}
			return testRunner(), nil
		},
	}
}

func TestLoopbackSweep(t *testing.T) {
	addr := startServer(t, specCheckedServer(t, "spec-v1"))
	d := &Dispatcher{
		Hosts: []string{addr},
		Spec:  []byte("spec-v1"),
		Local: testRunner(),
		Seed:  1,
	}
	deliver, got := collector()
	if err := d.Run(context.Background(), 0, 40, deliver); err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, *got, 0, 40)
}

func TestLoopbackMultiShard(t *testing.T) {
	var hosts []string
	for range 3 {
		hosts = append(hosts, startServer(t, specCheckedServer(t, "spec-v1")))
	}
	var done atomic.Int64
	d := &Dispatcher{
		Hosts:     hosts,
		Spec:      []byte("spec-v1"),
		Local:     testRunner(),
		BatchSize: 3,
		Seed:      2,
		OnJobDone: func(i int, dur time.Duration) { done.Add(1) },
	}
	deliver, got := collector()
	if err := d.Run(context.Background(), 0, 60, deliver); err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, *got, 0, 60)
	if done.Load() != 60 {
		t.Fatalf("OnJobDone fired %d times, want 60", done.Load())
	}
}

// TestLocalOnly pins the degenerate fleet: no hosts at all runs the
// whole range on the Local runner, including a non-zero resume offset.
func TestLocalOnly(t *testing.T) {
	d := &Dispatcher{Local: testRunner(), Seed: 3}
	deliver, got := collector()
	if err := d.Run(context.Background(), 10, 30, deliver); err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, *got, 10, 30)
}

// TestUnreachableHostsDegradeToLocal pins graceful degradation: every
// dial fails, so after each host's first attempt resolves the local
// lifeline executes the sweep — same bytes, no error.
func TestUnreachableHostsDegradeToLocal(t *testing.T) {
	d := &Dispatcher{
		Hosts: []string{"shard-a", "shard-b"},
		Local: testRunner(),
		Seed:  4,
		Dial: func(addr string) (net.Conn, error) {
			return nil, errors.New("no route to host")
		},
	}
	deliver, got := collector()
	if err := d.Run(context.Background(), 0, 20, deliver); err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, *got, 0, 20)
}

// TestRefusedWorkerFallsBackToLocal pins the permanent-refusal path: a
// worker whose NewRunner rejects the spec is abandoned (no reconnect
// storm) and the sweep degrades to local.
func TestRefusedWorkerFallsBackToLocal(t *testing.T) {
	srv := &Server{NewRunner: func(spec []byte) (Runner, error) {
		return nil, errors.New("unknown study")
	}}
	addr := startServer(t, srv)
	d := &Dispatcher{
		Hosts: []string{addr},
		Spec:  []byte("spec-v1"),
		Local: testRunner(),
		Seed:  5,
	}
	deliver, got := collector()
	if err := d.Run(context.Background(), 0, 12, deliver); err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, *got, 0, 12)
}

// --- scripted shards -------------------------------------------------

// scriptedDialer turns a per-session script into a Dispatcher.Dial: each
// dial hands the script the worker side of an in-memory pipe, with a
// 1-based session number so scripts can misbehave once and then recover.
func scriptedDialer(script func(sess int, conn net.Conn)) func(string) (net.Conn, error) {
	var sessions atomic.Int64
	return func(addr string) (net.Conn, error) {
		c, s := net.Pipe()
		go script(int(sessions.Add(1)), s)
		return c, nil
	}
}

// shardHandshake speaks the worker side of the handshake.
func shardHandshake(conn net.Conn) bool {
	m, err := readMsg(conn)
	if err != nil || m.Op != opHello || m.Proto != ProtoVersion {
		return false
	}
	return writeMsg(conn, &msg{Op: opHelloOK}) == nil
}

// behaveShard is a fully well-behaved worker session: handshake, then
// answer every exec batch index-by-index until the dispatcher hangs up.
func behaveShard(conn net.Conn) {
	defer conn.Close()
	if !shardHandshake(conn) {
		return
	}
	for {
		m, err := readMsg(conn)
		if err != nil || m.Op != opExec {
			return
		}
		for _, i := range m.Indices {
			if writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i)}) != nil {
				return
			}
		}
		if writeMsg(conn, &msg{Op: opBatchDone, Seq: m.Seq}) != nil {
			return
		}
	}
}

// TestScriptedShardFailures is the failure-mode table: each script
// misbehaves in a specific way on its first session(s) and the test pins
// that the merged output is byte-identical to a clean run — exactly-once,
// in-order, deterministic payloads — with OnJobDone firing exactly once
// per job despite duplicate completions.
func TestScriptedShardFailures(t *testing.T) {
	tests := []struct {
		name   string
		script func() func(sess int, conn net.Conn)
	}{
		{
			// Dial succeeds but the shard dies before the handshake
			// completes — the dispatcher's first claim never happens.
			name: "die-before-claim",
			script: func() func(int, net.Conn) {
				return func(sess int, conn net.Conn) {
					if sess == 1 {
						conn.Close()
						return
					}
					behaveShard(conn)
				}
			},
		},
		{
			// The shard claims a batch (reads the exec frame) and dies
			// without answering a single job.
			name: "die-after-claim",
			script: func() func(int, net.Conn) {
				return func(sess int, conn net.Conn) {
					if sess == 1 {
						defer conn.Close()
						if !shardHandshake(conn) {
							return
						}
						readMsg(conn) // claim the batch, then die
						return
					}
					behaveShard(conn)
				}
			},
		},
		{
			// The shard dies mid-stream: some jobDone frames land, the
			// rest of the batch is torn away with the connection.
			name: "die-mid-stream",
			script: func() func(int, net.Conn) {
				return func(sess int, conn net.Conn) {
					if sess == 1 {
						defer conn.Close()
						if !shardHandshake(conn) {
							return
						}
						m, err := readMsg(conn)
						if err != nil || m.Op != opExec {
							return
						}
						i := m.Indices[0]
						writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i)})
						return // remaining batch indices die with us
					}
					behaveShard(conn)
				}
			},
		},
		{
			// The shard dies holding a lease, resurrects, and answers the
			// *old* lease's indices before serving new work — stale
			// completions that race re-dispatched ones. First-write-wins
			// must keep the emit stream exactly-once.
			name: "resurrect-stale-lease",
			script: func() func(int, net.Conn) {
				var stale []int
				return func(sess int, conn net.Conn) {
					defer conn.Close()
					switch sess {
					case 1:
						if !shardHandshake(conn) {
							return
						}
						m, err := readMsg(conn)
						if err != nil || m.Op != opExec {
							return
						}
						stale = m.Indices // die holding this lease
						return
					case 2:
						if !shardHandshake(conn) {
							return
						}
						m, err := readMsg(conn)
						if err != nil || m.Op != opExec {
							return
						}
						// Answer the dead session's lease first — these
						// indices are also in (or racing) the new batch.
						for _, i := range stale {
							writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i)})
						}
						for _, i := range m.Indices {
							writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i)})
						}
						if writeMsg(conn, &msg{Op: opBatchDone, Seq: m.Seq}) != nil {
							return
						}
						behaveShardLoop(conn)
					default:
						behaveShard(conn)
					}
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var done atomic.Int64
			d := &Dispatcher{
				Hosts:            []string{"scripted"},
				Local:            testRunner(),
				Dial:             scriptedDialer(tc.script()),
				BatchSize:        4,
				HeartbeatTimeout: time.Second,
				StealAfter:       100 * time.Millisecond,
				Seed:             42,
				OnJobDone:        func(i int, dur time.Duration) { done.Add(1) },
			}
			deliver, got := collector()
			if err := d.Run(context.Background(), 0, 25, deliver); err != nil {
				t.Fatal(err)
			}
			verifyDeliveries(t, *got, 0, 25)
			if done.Load() != 25 {
				t.Fatalf("OnJobDone fired %d times, want 25 (duplicate completion leaked)", done.Load())
			}
		})
	}
}

// behaveShardLoop is behaveShard after the handshake already happened.
func behaveShardLoop(conn net.Conn) {
	for {
		m, err := readMsg(conn)
		if err != nil || m.Op != opExec {
			return
		}
		for _, i := range m.Indices {
			if writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i)}) != nil {
				return
			}
		}
		if writeMsg(conn, &msg{Op: opBatchDone, Seq: m.Seq}) != nil {
			return
		}
	}
}

// TestPoisonBatchFallsBackToLocal pins the fatal-everywhere path: a
// shard that dies whenever its batch contains a particular index burns
// that batch's transport budget, and the local lifeline adopts the
// poisoned jobs while the fleet keeps serving the rest.
func TestPoisonBatchFallsBackToLocal(t *testing.T) {
	const poison = 5
	script := func(sess int, conn net.Conn) {
		defer conn.Close()
		if !shardHandshake(conn) {
			return
		}
		for {
			m, err := readMsg(conn)
			if err != nil || m.Op != opExec {
				return
			}
			for _, i := range m.Indices {
				if i == poison {
					return // die rather than answer a batch holding the poison job
				}
			}
			for _, i := range m.Indices {
				if writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i)}) != nil {
					return
				}
			}
			if writeMsg(conn, &msg{Op: opBatchDone, Seq: m.Seq}) != nil {
				return
			}
		}
	}
	d := &Dispatcher{
		Hosts:            []string{"scripted"},
		Local:            testRunner(),
		Dial:             scriptedDialer(script),
		BatchSize:        2,
		HeartbeatTimeout: time.Second,
		StealAfter:       50 * time.Millisecond,
		MaxRedispatch:    2,
		Seed:             7,
	}
	deliver, got := collector()
	if err := d.Run(context.Background(), 0, 16, deliver); err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, *got, 0, 16)
}

// TestJobFailureDeliveredInOrder pins that a job-level failure is a
// delivered outcome, not a transport event: it arrives at its index
// position with the runner's error text, and a deliver error (the
// stop-on-error sweep aborting) propagates out of Run.
func TestJobFailureDeliveredInOrder(t *testing.T) {
	const failAt = 7
	failing := RunnerFunc(func(ctx context.Context, i int) ([]byte, error) {
		if i == failAt {
			return nil, errors.New("job 7: deterministic fatal failure")
		}
		return rowPayload(i), nil
	})
	srv := &Server{NewRunner: func(spec []byte) (Runner, error) { return failing, nil }}
	addr := startServer(t, srv)
	d := &Dispatcher{
		Hosts: []string{addr},
		Local: failing,
		Seed:  8,
	}
	var got []delivery
	abort := errors.New("sweep aborted")
	err := d.Run(context.Background(), 0, 30, func(i int, r Result) error {
		got = append(got, delivery{i, r})
		if r.Err != "" {
			return abort
		}
		return nil
	})
	if !errors.Is(err, abort) {
		t.Fatalf("Run returned %v, want the deliver abort error", err)
	}
	if len(got) != failAt+1 {
		t.Fatalf("delivered %d results, want %d (0..%d)", len(got), failAt+1, failAt)
	}
	for k, dv := range got[:failAt] {
		if dv.i != k || dv.r.Err != "" {
			t.Fatalf("delivery %d = index %d err %q, want clean index %d", k, dv.i, dv.r.Err, k)
		}
	}
	last := got[failAt]
	if last.i != failAt || last.r.Err != "job 7: deterministic fatal failure" {
		t.Fatalf("failure delivered as index %d err %q", last.i, last.r.Err)
	}
}

// TestKeepGoingDeliversAllFailures pins keep-going mode: failures are
// delivered in place and the sweep continues to the end.
func TestKeepGoingDeliversAllFailures(t *testing.T) {
	flaky := RunnerFunc(func(ctx context.Context, i int) ([]byte, error) {
		if i%5 == 2 {
			return nil, fmt.Errorf("job %d failed", i)
		}
		return rowPayload(i), nil
	})
	srv := &Server{NewRunner: func(spec []byte) (Runner, error) { return flaky, nil }}
	addr := startServer(t, srv)
	d := &Dispatcher{
		Hosts:     []string{addr},
		Local:     flaky,
		KeepGoing: true,
		Seed:      9,
	}
	deliver, got := collector()
	if err := d.Run(context.Background(), 0, 20, deliver); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 20 {
		t.Fatalf("delivered %d results, want 20", len(*got))
	}
	for k, dv := range *got {
		if dv.i != k {
			t.Fatalf("delivery %d has index %d", k, dv.i)
		}
		if k%5 == 2 {
			if want := fmt.Sprintf("job %d failed", k); dv.r.Err != want {
				t.Fatalf("index %d err %q, want %q", k, dv.r.Err, want)
			}
		} else if dv.r.Err != "" || !bytes.Equal(dv.r.Payload, rowPayload(k)) {
			t.Fatalf("index %d = (%q, %q), want clean row", k, dv.r.Payload, dv.r.Err)
		}
	}
}

// TestConnFaultsByteIdentical turns on the full connection-fault
// schedule on both ends of real TCP loopback connections and pins that
// the delivered stream is still exactly the clean stream — drops tear
// sessions (re-dispatched), short reads fragment frames (reassembled),
// delays shuffle timing (order restored by the board).
func TestConnFaultsByteIdentical(t *testing.T) {
	serverInj, err := fault.ParseSpec("seed=101,conndrop=0.002,connshort=0.2,conndelay=0.1")
	if err != nil {
		t.Fatal(err)
	}
	dialInj, err := fault.ParseSpec("seed=202,conndrop=0.002,connshort=0.2,conndelay=0.1")
	if err != nil {
		t.Fatal(err)
	}
	srv := specCheckedServer(t, "spec-v1")
	srv.Inject = serverInj
	addr := startServer(t, srv)
	d := &Dispatcher{
		Hosts:            []string{addr, addr},
		Spec:             []byte("spec-v1"),
		Local:            testRunner(),
		Inject:           dialInj,
		BatchSize:        3,
		HeartbeatTimeout: 2 * time.Second,
		StealAfter:       200 * time.Millisecond,
		Seed:             11,
	}
	deliver, got := collector()
	if err := d.Run(context.Background(), 0, 50, deliver); err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, *got, 0, 50)
}

// TestBoardFirstWriteWins pins the duplicate-resolution primitive
// directly: the second completion of an index is dropped.
func TestBoardFirstWriteWins(t *testing.T) {
	b := newBoard(0, 4, 64)
	if !b.complete(2, Result{Payload: []byte("first")}) {
		t.Fatal("first completion reported as duplicate")
	}
	if b.complete(2, Result{Payload: []byte("second")}) {
		t.Fatal("duplicate completion reported as a win")
	}
	r, ok := b.awaitDone(context.Background(), 2)
	if !ok || string(r.Payload) != "first" {
		t.Fatalf("board holds %q, want the first write", r.Payload)
	}
}

// TestRunCancelled pins that ctx cancellation unblocks Run.
func TestRunCancelled(t *testing.T) {
	stall := RunnerFunc(func(ctx context.Context, i int) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	d := &Dispatcher{Local: stall, Seed: 12}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	deliver, _ := collector()
	if err := d.Run(ctx, 0, 4, deliver); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// BenchmarkLoopbackDispatch measures per-job dispatcher overhead over a
// real TCP loopback worker with a trivial runner: framing, batching,
// board bookkeeping, and ordered delivery with no simulation cost.
func BenchmarkLoopbackDispatch(b *testing.B) {
	addr := startServer(b, specCheckedServer(b, "bench"))
	d := &Dispatcher{
		Hosts: []string{addr},
		Spec:  []byte("bench"),
		Local: testRunner(),
		Seed:  13,
	}
	b.ResetTimer()
	err := d.Run(context.Background(), 0, b.N, func(i int, r Result) error { return nil })
	if err != nil {
		b.Fatal(err)
	}
}

// logRecorder collects Dispatcher.Logf lines from its goroutines.
type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (l *logRecorder) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// reconnects returns the logged reconnect lines.
func (l *logRecorder) reconnects() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, s := range l.lines {
		if strings.Contains(s, "(reconnect ") {
			out = append(out, s)
		}
	}
	return out
}

// TestCleanSweepLogsNoReconnect: a fault-free sweep over two loopback
// shards logs no reconnect. The sweep-end cancellation closes any
// connection still waiting for a frame; that close is the shutdown, not
// a transport failure.
func TestCleanSweepLogsNoReconnect(t *testing.T) {
	hosts := []string{
		startServer(t, specCheckedServer(t, "spec-v1")),
		startServer(t, specCheckedServer(t, "spec-v1")),
	}
	var log logRecorder
	for round := range 5 {
		d := &Dispatcher{
			Hosts: hosts,
			Spec:  []byte("spec-v1"),
			Local: testRunner(),
			Seed:  uint64(20 + round),
			Logf:  log.logf,
		}
		deliver, got := collector()
		if err := d.Run(context.Background(), 0, 50, deliver); err != nil {
			t.Fatal(err)
		}
		verifyDeliveries(t, *got, 0, 50)
	}
	if r := log.reconnects(); len(r) != 0 {
		t.Fatalf("clean sweeps logged reconnects: %q", r)
	}
}

// TestSweepEndCloseIsNotReconnect pins the shutdown race deterministically:
// the shard answers every job of its single batch but never sends the
// batch-done frame, so when the sweep completes the dispatcher is still
// blocked reading from it. Run's closing cancel tears that read down,
// which must not be logged as a reconnect.
func TestSweepEndCloseIsNotReconnect(t *testing.T) {
	const n = 8
	var log logRecorder
	d := &Dispatcher{
		Hosts:     []string{"held"},
		Spec:      []byte("spec-v1"),
		Local:     testRunner(),
		BatchSize: n,
		Seed:      30,
		Logf:      log.logf,
		Dial: scriptedDialer(func(sess int, conn net.Conn) {
			defer conn.Close()
			if !shardHandshake(conn) {
				return
			}
			m, err := readMsg(conn)
			if err != nil || m.Op != opExec {
				return
			}
			for _, i := range m.Indices {
				if writeMsg(conn, &msg{Op: opJobDone, Seq: m.Seq, Index: i, Payload: rowPayload(i)}) != nil {
					return
				}
			}
			readMsg(conn) // hold the batch open until the dispatcher hangs up
		}),
	}
	deliver, got := collector()
	if err := d.Run(context.Background(), 0, n, deliver); err != nil {
		t.Fatal(err)
	}
	verifyDeliveries(t, *got, 0, n)
	if r := log.reconnects(); len(r) != 0 {
		t.Fatalf("sweep-end close logged as reconnect: %q", r)
	}
}
