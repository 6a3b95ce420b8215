package specdsm_test

import (
	"bytes"
	"errors"
	"log/slog"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specdsm"
	"specdsm/internal/sweep"
)

// streamCfg is a deliberately small study shape shared by the streaming
// tests: big enough to exercise the parallel merge, small enough to run
// in every `go test`.
func streamCfg() specdsm.StudyConfig {
	return specdsm.StudyConfig{
		Apps:          []string{"em3d", "tomcatv"},
		Nodes:         8,
		Scale:         0.25,
		Iterations:    4,
		Parallel:      4,
		DisableChecks: true,
	}
}

func TestSpeculationStudyStreamMatchesCollect(t *testing.T) {
	cfg := streamCfg()
	want, err := specdsm.SpeculationStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []specdsm.AppSpeculation
	next := 0
	err = specdsm.SpeculationStudyStream(cfg, func(i int, row specdsm.AppSpeculation) error {
		if i != next {
			t.Fatalf("row %d emitted, want %d", i, next)
		}
		next++
		got = append(got, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed rows differ from collected study")
	}
}

func TestStreamEmitErrorStopsStudy(t *testing.T) {
	sentinel := errors.New("stop here")
	rows := 0
	err := specdsm.PredictorStudyStream(streamCfg(), func(i int, _ specdsm.AppPrediction) error {
		rows++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if rows != 1 {
		t.Fatalf("emit ran %d times after erroring", rows)
	}
}

// TestStudyCheckpointResume drives the whole user-visible contract on a
// real study: a completed checkpoint replays with zero re-simulation, a
// fresh (non-resume) run refuses to clobber it, and a config change is
// rejected instead of splicing incompatible rows.
func TestStudyCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed study is slow for -short")
	}
	cfg := streamCfg()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck")
	cfg.CheckpointEvery = 2
	seeds := []int64{1, 2, 3}

	fresh, err := specdsm.SpeculationStudySeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}

	// Same invocation again without -resume: saved work must not be
	// silently overwritten.
	if _, err := specdsm.SpeculationStudySeeds(cfg, seeds); !errors.Is(err, sweep.ErrCheckpointExists) {
		t.Fatalf("err = %v, want ErrCheckpointExists", err)
	}

	// Resume of a completed sweep replays rows without running any job.
	var ran atomic.Int64
	cfg.Resume = true
	cfg.OnJobDone = func(int, time.Duration) { ran.Add(1) }
	resumed, err := specdsm.SpeculationStudySeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("resume of completed sweep ran %d jobs", n)
	}
	if !reflect.DeepEqual(resumed, fresh) {
		t.Fatalf("resumed aggregate differs:\n got %+v\nwant %+v", resumed, fresh)
	}

	// A different study shape must not consume the old file.
	cfg.Scale = 0.5
	if _, err := specdsm.SpeculationStudySeeds(cfg, seeds); !errors.Is(err, sweep.ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
	if _, err := specdsm.SpeculationStudySeeds(streamCfg(), nil); err == nil {
		t.Fatal("expected no-seeds error")
	}
}

// TestRTLSweepStreamInterruptResume interrupts a checkpointed sweep from
// the emit side (the row is already persisted when emit fails), then
// resumes and checks the full emitted sequence is byte-identical to an
// uninterrupted single-worker run while re-simulating only the missing
// suffix.
func TestRTLSweepStreamInterruptResume(t *testing.T) {
	cfg := streamCfg()
	app, wp := "em3d", specdsm.WorkloadParams{Nodes: 8, Scale: 0.25, Iterations: 4, Seed: 1}
	flights := []int{20, 80, 200, 320}

	var fresh []specdsm.RTLPoint
	seq := specdsm.StudyConfig{Parallel: 1}
	if err := specdsm.RTLSweepStream(seq, app, wp, flights, func(_ int, p specdsm.RTLPoint) error {
		fresh = append(fresh, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck")
	cfg.CheckpointEvery = 1
	sentinel := errors.New("interrupted")
	err := specdsm.RTLSweepStream(cfg, app, wp, flights, func(i int, _ specdsm.RTLPoint) error {
		if i == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want interruption sentinel", err)
	}

	var ran atomic.Int64
	cfg.Resume = true
	cfg.OnJobDone = func(int, time.Duration) { ran.Add(1) }
	var resumed []specdsm.RTLPoint
	if err := specdsm.RTLSweepStream(cfg, app, wp, flights, func(_ int, p specdsm.RTLPoint) error {
		resumed = append(resumed, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, fresh) {
		t.Fatalf("resumed sweep differs:\n got %+v\nwant %+v", resumed, fresh)
	}
	total := int64(2 * len(flights))
	if n := ran.Load(); n == 0 || n >= total {
		t.Fatalf("resume ran %d of %d jobs, want a proper suffix", n, total)
	}
}

// TestResumedProgressCountsJobsLeft: a resumed study's progress log
// counts only the jobs it actually runs and names them by study index —
// the first line is the first job after the replayed prefix, and the
// last line reads completed == total.
func TestResumedProgressCountsJobsLeft(t *testing.T) {
	cfg := streamCfg()
	cfg.Apps = []string{"em3d", "tomcatv", "moldyn"}
	cfg.Parallel = 1
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck")
	cfg.CheckpointEvery = 1
	// Interrupt from the emit side at the second application: its three
	// mode runs are already persisted when emit fails.
	var ran atomic.Int64
	interrupted := cfg
	interrupted.OnJobDone = func(int, time.Duration) { ran.Add(1) }
	stop := errors.New("interrupted")
	err := specdsm.SpeculationStudyStream(interrupted, func(i int, _ specdsm.AppSpeculation) error {
		if i == 1 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the interrupt", err)
	}
	replayed := int(ran.Load())

	var buf bytes.Buffer
	cfg.Resume = true
	cfg.Progress = slog.New(slog.NewTextHandler(&buf, nil))
	if err := specdsm.SpeculationStudyStream(cfg, func(int, specdsm.AppSpeculation) error { return nil }); err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`index=(\d+) completed=(\d+) total=(\d+)`)
	var got [][]string
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if m := line.FindStringSubmatch(l); m != nil {
			got = append(got, m[1:])
		}
	}
	jobs := 3 * len(cfg.Apps)
	if len(got) != jobs-replayed {
		t.Fatalf("%d progress lines for %d jobs left:\n%s", len(got), jobs-replayed, buf.String())
	}
	if first := got[0][0]; first != strconv.Itoa(replayed) {
		t.Errorf("first index = %s, want %d (the first job after %d replayed rows)", first, replayed, replayed)
	}
	if last := got[len(got)-1]; last[1] != last[2] {
		t.Errorf("last line reads completed=%s total=%s, want completed == total", last[1], last[2])
	}
}
