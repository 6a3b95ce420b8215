package specdsm

import (
	"reflect"
	"testing"
)

// TestWideArenaRowEquivalence extends the pooled-reuse contract of
// pool_test.go beyond the inline reader-vector tier: at N = 256 and
// N = 1024 a machine reused through the pool must produce run results
// deep-equal to a freshly built one, across DSM modes. Each
// configuration runs twice, so the second run is on a reused machine.
// This pins both the wide-vector protocol paths and the predictor
// interner's clear-but-retain Reset.
func TestWideArenaRowEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("wide machines are slow in -short mode")
	}
	for _, nodes := range []int{256, 1024} {
		w, err := AppWorkload("em3d", WorkloadParams{
			Nodes: nodes, Iterations: 2, Scale: 0.05, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeBase, ModeSWI} {
			opts := MachineOptions{Mode: mode}
			fresh := runFresh(t, w, opts)
			for run := 0; run < 2; run++ {
				pooled, err := Run(w, opts)
				if err != nil {
					t.Fatalf("N=%d/%s pooled: %v", nodes, mode, err)
				}
				if !reflect.DeepEqual(fresh, pooled) {
					t.Errorf("N=%d/%s run %d: pooled row diverged from fresh build\nfresh:  %+v\npooled: %+v",
						nodes, mode, run, fresh, pooled)
				}
			}
			if fresh.SpecReadsFR+fresh.SpecReadsSWI == 0 && mode == ModeSWI {
				t.Logf("N=%d: no speculative activity (workload too small?)", nodes)
			}
		}
	}
}
