package specdsm

import (
	"context"
	"testing"
)

// TestWarmJobAllocs guards the machine pool in tier-1: once a
// configuration's machine is built, a study job allocates only its
// result and a few per-run maps. Building a predictor-study machine
// costs thousands of allocations, so a return of per-job machine builds
// fails here. Each guard is pinned at the count measured on the current
// code (em3d, 16 nodes, scale 0.1); lower it when a change saves
// allocations, never raise it to let one through.
func TestWarmJobAllocs(t *testing.T) {
	cfg := StudyConfig{Apps: []string{"em3d"}, Scale: 0.1}.withDefaults()
	ctx := context.Background()
	cases := []struct {
		name string
		job  func()
		max  float64
	}{
		{"predictor", func() { mustJob(predictorJob(cfg)(ctx, 0)) }, 358},
		{"speculation FR", func() { mustJob(speculationJob(cfg)(ctx, 1)) }, 337},
		{"speculation SWI", func() { mustJob(speculationJob(cfg)(ctx, 2)) }, 337},
	}
	for _, tc := range cases {
		tc.job() // build the machine
		if got := testing.AllocsPerRun(5, tc.job); got > tc.max {
			t.Errorf("warm %s job allocates %.0f times, pinned at %.0f", tc.name, got, tc.max)
		}
	}
}

// mustJob panics on a job error, so a job call fits AllocsPerRun's
// func().
func mustJob[T any](_ T, err error) {
	if err != nil {
		panic(err)
	}
}
