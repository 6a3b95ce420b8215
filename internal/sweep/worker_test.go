package sweep_test

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specdsm/internal/sweep"
)

// collect runs n jobs through sweep.Run and returns the results in
// index order.
func collect[T any](p *sweep.Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := sweep.Run(context.Background(), p, sweep.Job[T]{
		N:  n,
		Fn: func(_ context.Context, i int) (T, error) { return fn(i) },
		Emit: func(i int, v T) error {
			out[i] = v
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TestOnJobDoneReportsEveryJob checks the progress hook fires exactly
// once per successful job with a plausible duration, on both the
// sequential and the parallel path.
func TestOnJobDoneReportsEveryJob(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 16
		var (
			mu   sync.Mutex
			seen = map[int]time.Duration{}
		)
		p := sweep.New(workers)
		p.OnJobDone = func(i int, d time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := seen[i]; dup {
				t.Errorf("workers=%d: job %d reported twice", workers, i)
			}
			seen[i] = d
		}
		_, err := collect(p, n, func(i int) (int, error) {
			time.Sleep(100 * time.Microsecond)
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: hook fired for %d jobs, want %d", workers, len(seen), n)
		}
		for i, d := range seen {
			if d <= 0 {
				t.Errorf("workers=%d: job %d reported non-positive duration %v", workers, i, d)
			}
		}
	}
}

// TestOnJobDoneSkipsFailedJobs checks that failed jobs do not report.
func TestOnJobDoneSkipsFailedJobs(t *testing.T) {
	var fired atomic.Int64
	p := sweep.New(1)
	p.OnJobDone = func(int, time.Duration) { fired.Add(1) }
	_, err := collect(p, 5, func(i int) (int, error) {
		if i == 3 {
			return 0, fmt.Errorf("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got := fired.Load(); got != 3 {
		t.Fatalf("hook fired %d times, want 3 (jobs 0-2)", got)
	}
}

// TestProgressLogsThroughSlog checks the slog adapter on a concurrent
// pool: every completed job produces one Info line carrying its index,
// and the completed count reaches the total.
func TestProgressLogsThroughSlog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	const n = 8
	p := sweep.New(4)
	p.OnJobDone = sweep.ProgressETA(logger, n)
	_, err := collect(p, n, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != n {
		t.Fatalf("got %d log lines, want %d:\n%s", len(lines), n, buf.String())
	}
	for i := 0; i < n; i++ {
		if !strings.Contains(buf.String(), fmt.Sprintf("index=%d ", i)) {
			t.Errorf("no log line for job index %d", i)
		}
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("completed=%d total=%d", n, n)) {
		t.Errorf("final completed count %d never logged", n)
	}
}

// TestProgressETALogsTotalsAndETA checks the ETA adapter: every job
// logs completed/total, and an eta attribute appears once enough
// completions exist to estimate a rate.
func TestProgressETALogsTotalsAndETA(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	const n = 12
	p := sweep.New(4)
	p.OnJobDone = sweep.ProgressETA(logger, n)
	_, err := collect(p, n, func(i int) (int, error) {
		time.Sleep(200 * time.Microsecond)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != n {
		t.Fatalf("got %d log lines, want %d:\n%s", len(lines), n, out)
	}
	if !strings.Contains(out, fmt.Sprintf("total=%d", n)) {
		t.Errorf("total never logged:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("completed=%d", n)) {
		t.Errorf("final completed count never logged:\n%s", out)
	}
	if !strings.Contains(out, "eta=") {
		t.Errorf("no eta attribute logged:\n%s", out)
	}
}

// lockedWriter serializes concurrent handler writes in the test.
type lockedWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
