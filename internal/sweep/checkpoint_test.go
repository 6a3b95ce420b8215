package sweep_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"specdsm/internal/sweep"
)

// row is a representative study row: nested struct, map, slice — the
// shapes the real drivers checkpoint.
type row struct {
	Index  int
	Name   string
	Values map[string]float64
	Series []int64
}

func mkRow(i int) row {
	return row{
		Index:  i,
		Name:   fmt.Sprintf("app-%d", i%3),
		Values: map[string]float64{"acc": float64(i) * 1.5, "cov": 1 / float64(i+1)},
		Series: []int64{int64(i), int64(i * i)},
	}
}

func ckPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "study.ckpt")
}

// runCheckpointed streams n jobs through a checkpoint, failing job
// failAt (-1 = none), and returns the emitted rows and error.
func runCheckpointed(t *testing.T, path string, n, workers, every, failAt int, resume bool, ran *atomic.Int64) ([]row, error) {
	t.Helper()
	var ck *sweep.Checkpoint
	var err error
	if resume {
		ck, err = sweep.ResumeCheckpoint(nil, path, "test-study|n=unbounded", every)
	} else {
		ck, err = sweep.OpenCheckpoint(nil, path, "test-study|n=unbounded", every)
	}
	if err != nil {
		return nil, err
	}
	var out []row
	err = sweep.Run(context.Background(), sweep.New(workers), sweep.Job[row]{
		N: n, Checkpoint: ck,
		Fn: func(_ context.Context, i int) (row, error) {
			if ran != nil {
				ran.Add(1)
			}
			if i == failAt {
				return row{}, fmt.Errorf("job %d interrupted", i)
			}
			return mkRow(i), nil
		},
		Emit: func(i int, v row) error {
			out = append(out, v)
			return nil
		},
	})
	return out, err
}

func TestCheckpointInterruptResumeEqualsFresh(t *testing.T) {
	const n = 50
	// Uninterrupted reference run, no checkpoint.
	var want []row
	if err := sweep.Run(context.Background(), sweep.New(1), sweep.Job[row]{
		N:    n,
		Fn:   func(_ context.Context, i int) (row, error) { return mkRow(i), nil },
		Emit: func(i int, v row) error { want = append(want, v); return nil },
	}); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			path := ckPath(t)
			// First run dies at job 23: rows up to the last flush survive.
			if _, err := runCheckpointed(t, path, n, workers, 4, 23, false, nil); err == nil {
				t.Fatal("interrupted run reported success")
			}
			var ran atomic.Int64
			got, err := runCheckpointed(t, path, n, workers, 4, -1, true, &ran)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed emission diverged from uninterrupted run:\n got %+v\nwant %+v", got, want)
			}
			if ran.Load() == n {
				t.Fatal("resume re-ran every job; checkpoint replay did nothing")
			}
		})
	}
}

func TestCheckpointCompletedSweepReplaysWithoutWork(t *testing.T) {
	path := ckPath(t)
	const n = 20
	want, err := runCheckpointed(t, path, n, 4, 3, -1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	got, err := runCheckpointed(t, path, n, 4, 3, -1, true, &ran)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 0 {
		t.Fatalf("fully checkpointed sweep still ran %d jobs", ran.Load())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed rows diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointOpenRefusesExistingFile(t *testing.T) {
	path := ckPath(t)
	if _, err := runCheckpointed(t, path, 5, 1, 2, -1, false, nil); err != nil {
		t.Fatal(err)
	}
	_, err := sweep.OpenCheckpoint(nil, path, "test-study|n=unbounded", 2)
	if !errors.Is(err, sweep.ErrCheckpointExists) {
		t.Fatalf("err = %v, want ErrCheckpointExists", err)
	}
}

func TestCheckpointKeyMismatch(t *testing.T) {
	path := ckPath(t)
	if _, err := sweep.OpenCheckpoint(nil, path, "study-A", 2); err != nil {
		t.Fatal(err)
	}
	_, err := sweep.ResumeCheckpoint(nil, path, "study-B", 2)
	if !errors.Is(err, sweep.ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
}

func TestCheckpointMoreRowsThanJobs(t *testing.T) {
	path := ckPath(t)
	if _, err := runCheckpointed(t, path, 30, 1, 1, -1, false, nil); err != nil {
		t.Fatal(err)
	}
	_, err := runCheckpointed(t, path, 10, 1, 1, -1, true, nil)
	if !errors.Is(err, sweep.ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	mutate := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)-5] },
		"bad magic":    func(b []byte) []byte { b[0] ^= 0xff; return b },
		"flipped byte": func(b []byte) []byte { b[len(b)-3] ^= 0x01; return b },
		"trailing":     func(b []byte) []byte { return append(b, 0xde, 0xad) },
		"empty":        func(b []byte) []byte { return nil },
		"version": func(b []byte) []byte {
			b[8] = 0xfe // version field follows the 8-byte magic
			return b
		},
	}
	for name, fn := range mutate {
		fn := fn
		t.Run(name, func(t *testing.T) {
			path := ckPath(t)
			if _, err := runCheckpointed(t, path, 12, 1, 2, -1, false, nil); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, fn(b), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = sweep.ResumeCheckpoint(nil, path, "test-study|n=unbounded", 2)
			if err == nil {
				t.Fatal("corrupted checkpoint accepted")
			}
			if !errors.Is(err, sweep.ErrCheckpointCorrupt) && !errors.Is(err, sweep.ErrCheckpointMismatch) {
				t.Fatalf("err = %v, want corrupt/mismatch sentinel", err)
			}
		})
	}
}

func TestCheckpointResumeMissingFileStartsFresh(t *testing.T) {
	path := ckPath(t)
	got, err := runCheckpointed(t, path, 8, 2, 2, -1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("emitted %d rows, want 8", len(got))
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}
}

// TestCheckpointFlushLeavesNoTempFile pins the write-rename discipline:
// after any successful flush the temp file is gone and the snapshot is
// complete.
func TestCheckpointFlushLeavesNoTempFile(t *testing.T) {
	path := ckPath(t)
	if _, err := runCheckpointed(t, path, 9, 1, 2, -1, false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// The snapshot must validate cleanly and hold all 9 rows.
	ck, err := sweep.ResumeCheckpoint(nil, path, "test-study|n=unbounded", 2)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Rows() != 9 {
		t.Fatalf("snapshot holds %d rows, want 9", ck.Rows())
	}
}

// TestStreamWindowBoundsLookahead pins the bounded-merge contract: no
// job starts a full merge window or more ahead of the emission frontier,
// even when low indices are slow. The window is derived from the worker
// count: 1 for one worker (a strictly sequential sweep), max(4×workers,
// 64) otherwise.
func TestStreamWindowBoundsLookahead(t *testing.T) {
	const n = 400
	for _, tc := range []struct{ workers, window int }{{1, 1}, {16, 64}, {32, 128}} {
		var emitted, maxAhead atomic.Int64
		err := sweep.Run(context.Background(), sweep.New(tc.workers), sweep.Job[int]{
			N: n,
			Fn: func(_ context.Context, i int) (int, error) {
				ahead := int64(i) - emitted.Load()
				for {
					cur := maxAhead.Load()
					if ahead <= cur || maxAhead.CompareAndSwap(cur, ahead) {
						break
					}
				}
				if i%100 == 0 {
					time.Sleep(2 * time.Millisecond)
				}
				return i, nil
			},
			Emit: func(i, v int) error {
				emitted.Add(1)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := maxAhead.Load(); got >= int64(tc.window) {
			t.Fatalf("workers=%d: job ran %d ahead of the merge frontier, window is %d", tc.workers, got, tc.window)
		}
	}
}

// TestRunExecutorResumes drives the executor seam the way a remote
// dispatcher does: after a checkpoint replay the executor is told the
// resume offset and the count of jobs left, settles relative indices
// one at a time through RunOne, and the completion hook it is handed
// reports study indices. The stitched emission equals an uninterrupted
// run, and the checkpoint ends up holding every row.
func TestRunExecutorResumes(t *testing.T) {
	const n, saved = 12, 5
	path := ckPath(t)
	if _, err := runCheckpointed(t, path, saved, 1, 1, -1, false, nil); err != nil {
		t.Fatal(err)
	}
	ck, err := sweep.ResumeCheckpoint(nil, path, "test-study|n=unbounded", 1)
	if err != nil {
		t.Fatal(err)
	}
	var hooked []int
	p := sweep.New(1)
	p.OnJobDone = func(i int, _ time.Duration) { hooked = append(hooked, i) }
	var got []row
	var gotBase, gotN int
	err = sweep.Run(context.Background(), p, sweep.Job[row]{
		N: n, Checkpoint: ck,
		Emit: func(i int, v row) error {
			if v.Index != i {
				t.Fatalf("emit index %d carries row %d", i, v.Index)
			}
			got = append(got, v)
			return nil
		},
		Exec: func(ctx context.Context, p *sweep.Pool, base, n int, emit func(int, row) error, fail sweep.FailFunc) error {
			gotBase, gotN = base, n
			for j := 0; j < n; j++ {
				v, err := sweep.RunOne(ctx, p, j, func(_ context.Context, j int) (row, error) {
					return mkRow(base + j), nil
				})
				if err != nil {
					return err
				}
				if err := emit(j, v); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotBase != saved || gotN != n-saved {
		t.Fatalf("executor ran (base %d, n %d), want (%d, %d)", gotBase, gotN, saved, n-saved)
	}
	for i, v := range got {
		if !reflect.DeepEqual(v, mkRow(i)) {
			t.Fatalf("row %d = %+v, want %+v", i, v, mkRow(i))
		}
	}
	if len(got) != n {
		t.Fatalf("emitted %d rows, want %d", len(got), n)
	}
	if len(hooked) != n-saved || hooked[0] != saved || hooked[len(hooked)-1] != n-1 {
		t.Fatalf("hook reported %v, want study indices %d..%d", hooked, saved, n-1)
	}
	if ck.Rows() != n {
		t.Fatalf("checkpoint holds %d rows after the sweep, want %d", ck.Rows(), n)
	}
}
