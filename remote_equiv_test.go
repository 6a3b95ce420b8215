package specdsm_test

import (
	"context"
	"net"
	"path/filepath"
	"reflect"
	"testing"

	"specdsm"
	"specdsm/internal/machine"
	"specdsm/internal/remote"
)

// startWorkers spins up n in-process sweepd-equivalent workers (a
// remote.Server wired to specdsm.NewRemoteRunner, exactly what
// cmd/sweepd serves) and returns their addresses.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	var hosts []string
	for range n {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		srv := &remote.Server{NewRunner: specdsm.NewRemoteRunner}
		go srv.Serve(ctx, lis)
		hosts = append(hosts, lis.Addr().String())
	}
	return hosts
}

func equivCfg() specdsm.StudyConfig {
	return specdsm.StudyConfig{
		Apps:     []string{"em3d", "moldyn"},
		Scale:    0.1,
		Depths:   []int{1},
		Parallel: 1,
	}
}

// TestRemotePredictorStudyMatchesLocal pins the tentpole contract at
// the study level: the identical row sequence whether the jobs run on
// an in-process Parallel: 1 pool or fan out across shard workers.
func TestRemotePredictorStudyMatchesLocal(t *testing.T) {
	collect := func(cfg specdsm.StudyConfig) []specdsm.AppPrediction {
		var rows []specdsm.AppPrediction
		if err := specdsm.PredictorStudyStream(cfg, func(_ int, row specdsm.AppPrediction) error {
			rows = append(rows, row)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	local := collect(equivCfg())

	rcfg := equivCfg()
	rcfg.Remote = startWorkers(t, 2)
	got := collect(rcfg)
	if !reflect.DeepEqual(got, local) {
		t.Fatalf("remote rows differ from local:\nremote: %+v\nlocal:  %+v", got, local)
	}
}

// TestShardReusesMachinesAcrossConnections: one shard serves the same
// predictor study to two consecutive dispatcher connections. The
// study's one machine configuration (6 nodes, no other test uses it) is
// built at most once, by the first connection; the second runs entirely
// on pooled machines and returns the same rows.
func TestShardReusesMachinesAcrossConnections(t *testing.T) {
	cfg := equivCfg()
	cfg.Nodes = 6
	cfg.Remote = startWorkers(t, 1)
	study := func() (rows []specdsm.AppPrediction, builds int) {
		before, _ := machine.PoolStats()
		if err := specdsm.PredictorStudyStream(cfg, func(_ int, row specdsm.AppPrediction) error {
			rows = append(rows, row)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		after, _ := machine.PoolStats()
		return rows, after - before
	}
	first, b1 := study()
	second, b2 := study()
	if b1 > 1 || b2 != 0 {
		t.Errorf("the connections built %d and %d machines, want at most 1 and then 0", b1, b2)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("second connection's rows differ:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestRemoteSweepKeepGoingMatchesLocal runs the CLI sweep study under
// injected job panics in keep-going mode, remotely and locally: the
// same jobs must fail with the same error text at the same indices,
// and the surviving rows must be identical — job-level failures are
// results, decided by the deterministic injector schedule, not by
// which executor happened to run the job.
func TestRemoteSweepKeepGoingMatchesLocal(t *testing.T) {
	type event struct {
		I    int
		Row  *specdsm.RunResult
		Fail string
	}
	collect := func(cfg specdsm.StudyConfig) []event {
		var events []event
		err := specdsm.RunSweepStream(cfg, specdsm.MachineOptions{Mode: specdsm.ModeSWI},
			func(i int, r *specdsm.RunResult) error {
				events = append(events, event{I: i, Row: r})
				return nil
			},
			func(i int, ferr error) error {
				events = append(events, event{I: i, Fail: ferr.Error()})
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	base := equivCfg()
	base.Apps = []string{"em3d", "moldyn", "appbt"}
	base.KeepGoing = true
	base.FaultSpec = "seed=5,panic=0.4"

	local := collect(base)
	var failures int
	for _, e := range local {
		if e.Fail != "" {
			failures++
		}
	}
	if failures == 0 || failures == len(local) {
		t.Fatalf("want a mix of failures and rows to compare, got %d/%d failures", failures, len(local))
	}

	rcfg := base
	rcfg.Remote = startWorkers(t, 2)
	got := collect(rcfg)
	if !reflect.DeepEqual(got, local) {
		t.Fatalf("remote event stream differs from local:\nremote: %+v\nlocal:  %+v", got, local)
	}
}

// TestRemoteCheckpointResumeMatchesLocal interrupts a remote sweep by
// aborting delivery mid-study, then resumes it remotely and compares
// the stitched row sequence against an uninterrupted local run — the
// dispatcher-restart leg of the determinism contract.
func TestRemoteCheckpointResumeMatchesLocal(t *testing.T) {
	collect := func(cfg specdsm.StudyConfig, stopAfter int) ([]specdsm.NodeScaling, error) {
		var rows []specdsm.NodeScaling
		err := specdsm.NodeScalingStudyStream(cfg, []int{4, 8}, func(_ int, row specdsm.NodeScaling) error {
			rows = append(rows, row)
			if stopAfter > 0 && len(rows) == stopAfter {
				return errAbort
			}
			return nil
		})
		return rows, err
	}
	local, err := collect(equivCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}

	hosts := startWorkers(t, 3)
	rcfg := equivCfg()
	rcfg.Remote = hosts
	rcfg.CheckpointPath = filepath.Join(t.TempDir(), "ck")
	rcfg.CheckpointEvery = 1
	partial, err := collect(rcfg, 2)
	if err != errAbort {
		t.Fatalf("interrupted run returned %v, want the abort error", err)
	}
	rcfg.Resume = true
	resumed, err := collect(rcfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = partial
	if !reflect.DeepEqual(resumed, local) {
		t.Fatalf("resumed remote rows differ from local:\nremote: %+v\nlocal:  %+v", resumed, local)
	}
}

var errAbort = &abortError{}

type abortError struct{}

func (*abortError) Error() string { return "test: abort delivery" }
