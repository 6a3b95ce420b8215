package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specdsm/internal/fault"
)

func TestTransientMarker(t *testing.T) {
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) != nil")
	}
	base := errors.New("flaky")
	te := Transient(base)
	if !IsTransient(te) {
		t.Fatal("Transient error not detected by IsTransient")
	}
	if !errors.Is(te, base) {
		t.Fatal("Transient hides the wrapped error from errors.Is")
	}
	if !IsTransient(fmt.Errorf("context: %w", te)) {
		t.Fatal("IsTransient misses a wrapped transient")
	}
	if IsTransient(base) || IsTransient(nil) {
		t.Fatal("IsTransient fired on a plain error or nil")
	}
	if IsTransient(&PanicError{Index: 1, Value: "x"}) {
		t.Fatal("PanicError must never be transient")
	}
}

// TestRetryClearsTransient: a job that fails transiently a fixed number
// of times succeeds under a sufficient retry budget, with the result
// slice identical to a clean run.
func TestRetryClearsTransient(t *testing.T) {
	const n, flakes = 40, 3
	for _, workers := range []int{1, 8} {
		var attempts atomic.Int64
		perJob := make([]atomic.Int32, n)
		p := New(workers)
		p.Retries = flakes
		got, err := collect(context.Background(), p, n, func(_ context.Context, i int) (int, error) {
			attempts.Add(1)
			if a := perJob[i].Add(1); i%5 == 0 && int(a) <= flakes {
				return 0, Transient(fmt.Errorf("job %d attempt %d flaked", i, a))
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		// 8 flaky jobs (i%5==0) × 3 extra attempts each.
		if want := int64(n + 8*flakes); attempts.Load() != want {
			t.Fatalf("workers=%d: %d attempts, want %d", workers, attempts.Load(), want)
		}
	}
}

// TestRetryBudgetExhausted: a persistently transient job fails after
// exactly Retries+1 attempts, and the error surfaces to the caller.
func TestRetryBudgetExhausted(t *testing.T) {
	const budget = 4
	var attempts atomic.Int64
	p := New(1)
	p.Retries = budget
	_, err := collect(context.Background(), p, 1, func(_ context.Context, i int) (int, error) {
		attempts.Add(1)
		return 0, Transient(errors.New("never clears"))
	})
	if err == nil || !IsTransient(err) {
		t.Fatalf("err = %v, want the transient error surfaced", err)
	}
	if attempts.Load() != budget+1 {
		t.Fatalf("%d attempts, want %d", attempts.Load(), budget+1)
	}
}

// TestFatalNotRetried: errors without the Transient marker (and panics)
// consume no retry budget — they run exactly once.
func TestFatalNotRetried(t *testing.T) {
	p := New(1)
	p.Retries = 10
	var ran atomic.Int64
	_, err := collect(context.Background(), p, 1, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		return 0, errors.New("fatal")
	})
	if err == nil || ran.Load() != 1 {
		t.Fatalf("fatal error ran %d times (err=%v), want 1", ran.Load(), err)
	}
	ran.Store(0)
	_, err = collect(context.Background(), p, 1, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		panic("bug")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || ran.Load() != 1 {
		t.Fatalf("panic ran %d times (err=%v), want 1", ran.Load(), err)
	}
}

// TestInjectedFaultsParallelInvariance is the tentpole determinism
// property: with a seeded injector producing transient faults and
// scheduling delays, plus a retry budget that absorbs them, every
// worker count produces the result slice of a clean sequential run.
func TestInjectedFaultsParallelInvariance(t *testing.T) {
	const n = 200
	job := func(_ context.Context, i int) (string, error) {
		return fmt.Sprintf("row %04d = %d", i, i*7), nil
	}
	clean, err := collect(context.Background(), New(1), n, job)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		inj := fault.New(42)
		inj.Transient = 0.3
		inj.Delay = 0.5
		inj.DelayMax = 16
		p := New(workers)
		p.Retries = 8
		p.RetrySeed = 42
		p.Inject = inj
		got, err := collect(context.Background(), p, n, job)
		if err != nil {
			t.Fatalf("workers=%d under faults: %v", workers, err)
		}
		for i := range clean {
			if got[i] != clean[i] {
				t.Fatalf("workers=%d: row %d diverged under faults: %q vs %q", workers, i, got[i], clean[i])
			}
		}
	}
}

// TestKeepGoingOrdering: in keep-going mode every index reaches exactly
// one of emit or fail, in strict index order, with an identical
// interleaving at every worker count.
func TestKeepGoingOrdering(t *testing.T) {
	const n = 150
	bad := map[int]bool{0: true, 7: true, 8: true, 77: true, 149: true}
	run := func(workers int) ([]string, []int) {
		var trace []string
		var failed []int
		err := Run(context.Background(), New(workers), Job[struct{}, int]{
			N: n,
			Fn: func(_ context.Context, _ struct{}, i int) (int, error) {
				if bad[i] {
					return 0, fmt.Errorf("job %d broke", i)
				}
				return i * 2, nil
			},
			Emit: func(i, v int) error {
				trace = append(trace, fmt.Sprintf("ok %d=%d", i, v))
				return nil
			},
			Fail: func(i int, err error) error {
				trace = append(trace, fmt.Sprintf("fail %d: %v", i, err))
				failed = append(failed, i)
				return nil
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return trace, failed
	}
	ref, refFailed := run(1)
	if len(ref) != n {
		t.Fatalf("trace has %d entries, want %d", len(ref), n)
	}
	if want := []int{0, 7, 8, 77, 149}; fmt.Sprint(refFailed) != fmt.Sprint(want) {
		t.Fatalf("failed manifest = %v, want %v", refFailed, want)
	}
	for _, workers := range []int{4, 16} {
		got, gotFailed := run(workers)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("workers=%d: emit/fail interleaving diverged from sequential", workers)
		}
		if fmt.Sprint(gotFailed) != fmt.Sprint(refFailed) {
			t.Fatalf("workers=%d: failed manifest %v, want %v", workers, gotFailed, refFailed)
		}
	}
}

// TestKeepGoingFailErrorStops: the failure sink can abort the sweep,
// exactly as an emit error does.
func TestKeepGoingFailErrorStops(t *testing.T) {
	tooMuch := errors.New("too many failures")
	for _, workers := range []int{1, 8} {
		var fails int
		err := Run(context.Background(), New(workers), Job[struct{}, int]{
			N: 100,
			Fn: func(_ context.Context, _ struct{}, i int) (int, error) {
				return 0, fmt.Errorf("job %d broke", i)
			},
			Emit: func(i, v int) error { return nil },
			Fail: func(i int, err error) error {
				fails++
				if fails == 3 {
					return tooMuch
				}
				return nil
			},
		})
		if !errors.Is(err, tooMuch) {
			t.Fatalf("workers=%d: err = %v, want fail sink's error", workers, err)
		}
		if fails != 3 {
			t.Fatalf("workers=%d: fail sink ran %d times, want 3", workers, fails)
		}
	}
}

// TestKeepGoingRetriesFirst: keep-going composes with retry — a
// transient failure within budget still emits normally; only exhausted
// or fatal failures reach the sink.
func TestKeepGoingRetriesFirst(t *testing.T) {
	const n = 30
	var once atomic.Int32
	p := New(4)
	p.Retries = 2
	var failed []int
	err := Run(context.Background(), p, Job[struct{}, int]{
		N: n,
		Fn: func(_ context.Context, _ struct{}, i int) (int, error) {
			if i == 5 && once.Add(1) == 1 {
				return 0, Transient(errors.New("one-shot flake"))
			}
			if i == 9 {
				return 0, errors.New("hard failure")
			}
			return i, nil
		},
		Emit: func(i, v int) error { return nil },
		Fail: func(i int, err error) error {
			failed = append(failed, i)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(failed) != "[9]" {
		t.Fatalf("failed = %v, want just job 9 (transient flake must have been retried)", failed)
	}
}

// panicDeep gives the trimmed stack some real user frames to keep.
func panicDeep(depth int) {
	if depth == 0 {
		panic("deliberate")
	}
	panicDeep(depth - 1)
}

// TestPanicErrorMessage pins the satellite contract: Error() names the
// job index, the panic value, and a trimmed stack with file:line info —
// and the text is identical whatever worker count ran the job.
func TestPanicErrorMessage(t *testing.T) {
	var msgs []string
	for _, workers := range []int{1, 8} {
		_, err := collect(context.Background(), New(workers), 64,
			func(_ context.Context, i int) (int, error) {
				if i == 17 {
					panicDeep(3)
				}
				return i, nil
			})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		msg := pe.Error()
		if !strings.Contains(msg, "job 17 panicked: deliberate") {
			t.Fatalf("Error() = %q, want job index and value", msg)
		}
		if !strings.Contains(msg, "panicDeep") || !strings.Contains(msg, ".go:") {
			t.Fatalf("Error() = %q, want trimmed stack with function and file:line", msg)
		}
		if strings.Contains(msg, "0x") || strings.Contains(msg, "goroutine") {
			t.Fatalf("Error() = %q leaks addresses or goroutine IDs", msg)
		}
		msgs = append(msgs, msg)
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("PanicError text differs across worker counts:\n  seq: %s\n  par: %s", msgs[0], msgs[1])
	}
}

// TestInjectedPanicsKeepGoing: an injector that panics every job, under
// keep-going, yields a complete ordered manifest with deterministic
// error text at every worker count.
func TestInjectedPanicsKeepGoing(t *testing.T) {
	const n = 25
	run := func(workers int) []string {
		inj := fault.New(7)
		inj.Panic = 1.0
		p := New(workers)
		p.Inject = inj
		var rows []string
		err := Run(context.Background(), p, Job[struct{}, int]{
			N:  n,
			Fn: func(_ context.Context, _ struct{}, i int) (int, error) { return i, nil },
			Emit: func(i, v int) error {
				t.Fatalf("workers=%d: job %d emitted despite injected panic", workers, i)
				return nil
			},
			Fail: func(i int, err error) error {
				rows = append(rows, fmt.Sprintf("%d: %v", i, err))
				return nil
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rows
	}
	ref := run(1)
	if len(ref) != n {
		t.Fatalf("manifest has %d rows, want %d", len(ref), n)
	}
	for _, workers := range []int{4, 16} {
		if got := run(workers); fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("workers=%d: failure manifest text diverged from sequential:\n%v\nvs\n%v", workers, got, ref)
		}
	}
}

// TestRetryHookFiresOncePerSuccess: OnJobDone still fires exactly once
// per successful job when attempts were retried.
func TestRetryHookFiresOncePerSuccess(t *testing.T) {
	const n = 20
	var done atomic.Int64
	var tries atomic.Int32
	p := New(4)
	p.Retries = 3
	p.OnJobDone = func(index int, _ time.Duration) { done.Add(1) }
	_, err := collect(context.Background(), p, n, func(_ context.Context, i int) (int, error) {
		if i == 3 && tries.Add(1) <= 2 {
			return 0, Transient(errors.New("flake"))
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.Load() != n {
		t.Fatalf("OnJobDone fired %d times, want %d", done.Load(), n)
	}
}
