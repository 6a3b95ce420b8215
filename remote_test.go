package specdsm

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"specdsm/internal/sweep"
)

// TestNewRemoteRunnerRefusesBadSpecs: a shard worker validates the
// spec it is handed and refuses a bad one at construction, with a
// reason, instead of failing (or panicking) job by job. Bad machine
// options in a sweep spec are refused with the error a local Run gives.
func TestNewRemoteRunnerRefusesBadSpecs(t *testing.T) {
	good := StudyConfig{Apps: []string{"em3d"}, Scale: 0.1, Depths: []int{1}}.withDefaults()
	cases := []struct {
		name string
		edit func(*remoteSpec)
		want string
	}{
		{"unknown app", func(rs *remoteSpec) { rs.Apps = []string{"nope"} }, "unknown application"},
		{"depth 0", func(rs *remoteSpec) { rs.Depths = []int{0} }, "invalid depth 0"},
		{"negative retries", func(rs *remoteSpec) { rs.Retries = -1 }, "negative retry budget"},
		{"negative iterations", func(rs *remoteSpec) { rs.Iterations = -3 }, "negative iteration count -3"},
		{"too many iterations", func(rs *remoteSpec) { rs.Iterations = MaxIterations + 1 }, "above the cap of 1000"},
		{"negative base", func(rs *remoteSpec) { rs.Base = -3 }, "negative resume offset -3"},
		{"bad fault spec", func(rs *remoteSpec) { rs.FaultSpec = "transient=lots" }, "fault"},
		{"empty node axis", func(rs *remoteSpec) { rs.Study = "scaling" }, "empty axis"},
		{"zero node count", func(rs *remoteSpec) { rs.Study, rs.NodeCounts = "scaling", []int{16, 0} }, "non-positive axis entry 0"},
		{"node count too large", func(rs *remoteSpec) { rs.Study, rs.NodeCounts = "scaling", []int{16, 5000} }, "invalid node count 5000"},
		{"one-node machine", func(rs *remoteSpec) { rs.Study, rs.NodeCounts = "scaling", []int{1} }, "invalid node count 1"},
		{"negative flight", func(rs *remoteSpec) {
			rs.Study, rs.RTLApp, rs.RTLFlights = "rtl", "em3d", []int{20, -5}
		}, "non-positive axis entry -5"},
		{"no seeds", func(rs *remoteSpec) { rs.Study = "seeds" }, "no seeds"},
		{"unknown mode", func(rs *remoteSpec) { rs.Study, rs.Opts.Mode = "sweep", "turbo" }, `unknown mode "turbo"`},
		{"unknown observer kind", func(rs *remoteSpec) {
			rs.Study, rs.Opts.Observers = "sweep", []PredictorConfig{{Kind: "oracle", Depth: 1}}
		}, `unknown predictor kind "oracle"`},
		{"observer depth 0", func(rs *remoteSpec) {
			rs.Study, rs.Opts.Observers = "sweep", []PredictorConfig{{Kind: MSP, Depth: 0}}
		}, "observer depth 0 out of range"},
		{"too many observers", func(rs *remoteSpec) {
			rs.Study, rs.Opts.Observers = "sweep", make([]PredictorConfig, MaxObservers+1)
		}, "65 observers, above the cap of 64"},
		{"active depth too deep", func(rs *remoteSpec) {
			rs.Study, rs.Opts.Mode, rs.Opts.Active = "sweep", ModeSWI, &PredictorConfig{Kind: VMSP, Depth: 99}
		}, "active depth 99 out of range"},
		{"negative capacity", func(rs *remoteSpec) { rs.Study, rs.Opts.CacheCapacity = "sweep", -1 }, "negative cache capacity -1"},
		{"negative opts flight", func(rs *remoteSpec) { rs.Study, rs.Opts.NetworkFlight = "sweep", -2 }, "negative network flight latency -2"},
		{"base spec upgrades", func(rs *remoteSpec) { rs.Study, rs.Opts.SpecUpgrades = "sweep", true }, "SpecUpgrades requires"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := good.remoteSpec("predictor")
			tc.edit(&rs)
			spec, err := rs.encode()
			if err != nil {
				t.Fatal(err)
			}
			_, err = NewRemoteRunner(spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a refusal mentioning %q", err, tc.want)
			}
			if rs.Study == "sweep" {
				// The local path refuses the same options with the same
				// error.
				w := mustWorkload(t, "em3d", WorkloadParams{Nodes: 4, Scale: 0.1})
				if _, lerr := Run(w, rs.Opts); lerr == nil || lerr.Error() != err.Error() {
					t.Fatalf("local Run err = %v, want %v", lerr, err)
				}
			}
		})
	}
	spec, err := good.remoteSpec("predictor").encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRemoteRunner(spec); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
}

// TestCheckpointMoreRowsThanJobsRemote: a study checkpoint holding more
// frames than the study has jobs is refused with the same error whether
// the jobs would run locally or on a shard fleet — both executors sit
// behind the one check in sweep.Run.
func TestCheckpointMoreRowsThanJobsRemote(t *testing.T) {
	cfg := StudyConfig{
		Apps: []string{"em3d"}, Scale: 0.1, Depths: []int{1}, Parallel: 1,
		CheckpointPath: filepath.Join(t.TempDir(), "ck"),
	}.withDefaults()
	// A checkpoint under the predictor study's own key, overfilled.
	ck, err := cfg.checkpoint("predictor", len(cfg.Apps), "")
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if err := sweep.AppendRow(ck, AppPrediction{App: "em3d"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	study := func(cfg StudyConfig) error {
		return PredictorStudyStream(cfg, func(int, AppPrediction) error {
			t.Fatal("a row was emitted from a checkpoint that does not fit the study")
			return nil
		})
	}
	local := study(cfg)
	cfg.Remote = []string{"127.0.0.1:1"}
	remote := study(cfg)
	if !errors.Is(local, sweep.ErrCheckpointMismatch) || !strings.Contains(local.Error(), "holds 3 frames but the sweep has only 1 jobs") {
		t.Fatalf("local err = %v, want the oversized-checkpoint mismatch", local)
	}
	if remote == nil || remote.Error() != local.Error() {
		t.Fatalf("remote err = %v, want the local error %q", remote, local)
	}
}
