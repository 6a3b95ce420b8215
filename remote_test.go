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
// reason, instead of failing (or panicking) job by job.
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
