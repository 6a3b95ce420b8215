package specdsm

import (
	"context"
	"reflect"
	"testing"

	"specdsm/internal/machine"
)

// runFresh is Run on a newly built machine, bypassing the machine pool:
// the reference every pooled run must equal.
func runFresh(t testing.TB, w Workload, opts MachineOptions) *RunResult {
	t.Helper()
	cfg, mode, err := buildConfig(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.New(cfg).Run(w.programs)
	if err != nil {
		t.Fatalf("%s/%s fresh: %v", w.Name, mode, err)
	}
	return convert(w, mode, cfg, res)
}

func mustWorkload(t testing.TB, app string, wp WorkloadParams) Workload {
	t.Helper()
	w, err := AppWorkload(app, wp)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestArenaStudyRowEquivalence pins the machine pool at the study
// level: pooled machines reused across every (app, seed, mode) cell
// produce run results deep-equal to a freshly built machine per cell,
// for two applications, two seeds, and all three DSM modes. Base, FR,
// and SWI differ in configuration, so the twelve runs build at most
// three machines.
func TestArenaStudyRowEquivalence(t *testing.T) {
	builds0, hits0 := machine.PoolStats()
	for _, app := range []string{"em3d", "moldyn"} {
		for _, seed := range []int64{11, 23} {
			w := mustWorkload(t, app, WorkloadParams{Nodes: 8, Iterations: 3, Scale: 0.25, Seed: seed})
			for _, mode := range []Mode{ModeBase, ModeFR, ModeSWI} {
				opts := MachineOptions{Mode: mode}
				fresh := runFresh(t, w, opts)
				pooled, err := Run(w, opts)
				if err != nil {
					t.Fatalf("%s/%s/seed%d pooled: %v", app, mode, seed, err)
				}
				if !reflect.DeepEqual(fresh, pooled) {
					t.Errorf("%s/%s/seed%d: pooled row diverged from fresh build\nfresh:  %+v\npooled: %+v",
						app, mode, seed, fresh, pooled)
				}
			}
		}
	}
	builds, hits := machine.PoolStats()
	if b, h := builds-builds0, hits-hits0; b > 3 || b+h != 12 {
		t.Errorf("12 runs built %d machines and reused %d, want at most 3 builds", b, h)
	}
}

// TestPoolReuseAcrossStudies runs one process's worth of studies back
// to back — predictor and speculation studies at seed 1, the scaling
// study at 16 and 32 nodes, an RTL sweep, a run at the default flight
// on the machine the sweep reconfigured, and the predictor study at
// seed 2 — so later calls run on machines earlier calls built. Every
// row must equal the row a freshly built machine gives.
func TestPoolReuseAcrossStudies(t *testing.T) {
	cfg := StudyConfig{Apps: []string{"em3d", "moldyn"}, Scale: 0.1, Parallel: 1}.withDefaults()
	var observers []PredictorConfig
	for _, kind := range Kinds() {
		for _, d := range cfg.Depths {
			observers = append(observers, PredictorConfig{Kind: kind, Depth: d})
		}
	}
	_, hits0 := machine.PoolStats()
	check := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: pooled row diverged from fresh build\npooled: %+v\nfresh:  %+v", what, got, want)
		}
	}
	predictor := func(seed int64) {
		c := cfg
		c.Seed = seed
		rows, err := PredictorStudy(c)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			w := mustWorkload(t, c.Apps[i], c.workloadParams())
			check("predictor "+row.App, row, predictionRow(c.Apps[i], runFresh(t, w, MachineOptions{Observers: observers})))
		}
	}

	predictor(1)
	spec, err := SpeculationStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range spec {
		w := mustWorkload(t, cfg.Apps[i], cfg.workloadParams())
		for k, got := range []*RunResult{row.Base, row.FR, row.SWI} {
			check("speculation "+row.App, got, runFresh(t, w, MachineOptions{Mode: specModes[k]}))
		}
	}
	if err := NodeScalingStudyStream(cfg, []int{16, 32}, func(_ int, row NodeScaling) error {
		wp := cfg.workloadParams()
		wp.Nodes = row.Nodes
		check("scaling "+row.App, row.Run, runFresh(t, mustWorkload(t, row.App, wp), MachineOptions{Mode: ModeSWI}))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(t, "em3d", cfg.workloadParams())
	if err := RTLSweepStream(cfg, "em3d", cfg.workloadParams(), []int{320, 20}, func(_ int, pt RTLPoint) error {
		base := runFresh(t, w, MachineOptions{NetworkFlight: pt.Flight, DisableChecks: true})
		swi := runFresh(t, w, MachineOptions{Mode: ModeSWI, NetworkFlight: pt.Flight, DisableChecks: true})
		check("rtl cycles", [2]int64{pt.BaseCycles, pt.SWICycles}, [2]int64{base.Cycles, swi.Cycles})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The sweep left its SWI machine at a 20-cycle flight; this run
	// takes it back to the default.
	opts := MachineOptions{Mode: ModeSWI, DisableChecks: true}
	got, err := Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	check("default flight after rtl", got, runFresh(t, w, opts))
	predictor(2)

	if _, hits := machine.PoolStats(); hits == hits0 {
		t.Error("no run was served by a pooled machine")
	}
}

// BenchmarkPredictorJob measures the predictor study's per-job cost: one
// application built and run under Base-DSM with the nine passive
// observers (Cosmos, MSP, VMSP at depths 1, 2, 4), at the paper's 16
// nodes and full scale, on a pooled machine. Iterations cycle through
// the seven applications; the pool is warmed with each one first.
func BenchmarkPredictorJob(b *testing.B) {
	cfg := StudyConfig{}.withDefaults()
	job := predictorJob(cfg)
	ctx := context.Background()
	for i := range cfg.Apps {
		if _, err := job(ctx, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := job(ctx, i%len(cfg.Apps)); err != nil {
			b.Fatal(err)
		}
	}
}
