package specdsm_test

import (
	"math"
	"strings"
	"testing"

	"specdsm"
)

func TestAppNamesAndInfos(t *testing.T) {
	names := specdsm.AppNames()
	if len(names) != 7 {
		t.Fatalf("AppNames = %v", names)
	}
	infos := specdsm.AppInfos()
	if len(infos) != 7 {
		t.Fatalf("AppInfos = %d entries", len(infos))
	}
	for _, in := range infos {
		if in.PaperInput == "" || in.PaperIterations == 0 {
			t.Errorf("%s missing Table 2 metadata", in.Name)
		}
	}
}

func TestAppWorkloadErrors(t *testing.T) {
	if _, err := specdsm.AppWorkload("nope", specdsm.WorkloadParams{}); err == nil {
		t.Fatal("expected error for unknown app")
	}
	if _, err := specdsm.MicroWorkload("nope", specdsm.WorkloadParams{}); err == nil {
		t.Fatal("expected error for unknown pattern")
	}
}

// TestAppWorkloadRefusesBadParams: parameters the generators cannot
// build from are refused with a reason instead of panicking or yielding
// an empty workload.
func TestAppWorkloadRefusesBadParams(t *testing.T) {
	cases := []struct {
		name string
		p    specdsm.WorkloadParams
		want string
	}{
		{"one-node machine", specdsm.WorkloadParams{Nodes: 1}, "invalid node count 1"},
		{"too many nodes", specdsm.WorkloadParams{Nodes: 5000}, "invalid node count 5000"},
		{"negative nodes", specdsm.WorkloadParams{Nodes: -4}, "invalid node count -4"},
		{"negative iterations", specdsm.WorkloadParams{Iterations: -2}, "negative iteration count -2"},
		{"too many iterations", specdsm.WorkloadParams{Iterations: specdsm.MaxIterations + 1}, "iteration count 1001 above the cap of 1000"},
		{"NaN scale", specdsm.WorkloadParams{Scale: math.NaN()}, "invalid scale NaN"},
		{"negative scale", specdsm.WorkloadParams{Scale: -1}, "invalid scale -1"},
		{"infinite scale", specdsm.WorkloadParams{Scale: math.Inf(1)}, "invalid scale +Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := specdsm.AppWorkload("em3d", tc.p)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("AppWorkload(%+v) = %v, want a refusal mentioning %q", tc.p, err, tc.want)
			}
		})
	}
	w, err := specdsm.AppWorkload("em3d", specdsm.WorkloadParams{Nodes: 2, Iterations: 1, Scale: 0.1})
	if err != nil || w.Ops() == 0 {
		t.Fatalf("smallest valid machine: %d ops, err %v", w.Ops(), err)
	}
}

func TestRunValidation(t *testing.T) {
	w, err := specdsm.AppWorkload("em3d", specdsm.WorkloadParams{Nodes: 4, Iterations: 1, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := specdsm.Run(w, specdsm.MachineOptions{Mode: "warp"}); err == nil {
		t.Fatal("expected unknown-mode error")
	}
	if _, err := specdsm.Run(w, specdsm.MachineOptions{
		Observers: []specdsm.PredictorConfig{{Kind: "Oracle", Depth: 1}},
	}); err == nil {
		t.Fatal("expected unknown-kind error")
	}
	if _, err := specdsm.Run(w, specdsm.MachineOptions{
		Observers: []specdsm.PredictorConfig{{Kind: specdsm.MSP, Depth: 0}},
	}); err == nil {
		t.Fatal("expected bad-depth error")
	}
	if _, err := specdsm.Run(w, specdsm.MachineOptions{SpecUpgrades: true}); err == nil {
		t.Fatal("expected error: SpecUpgrades without speculation mode")
	}
	if _, err := specdsm.Run(specdsm.Workload{}, specdsm.MachineOptions{}); err == nil {
		t.Fatal("expected empty-workload error")
	}
}

func TestRunBaseCollectsCounters(t *testing.T) {
	w, err := specdsm.AppWorkload("tomcatv", specdsm.WorkloadParams{Nodes: 8, Iterations: 2, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	r, err := specdsm.Run(w, specdsm.MachineOptions{
		Mode:      specdsm.ModeBase,
		Observers: []specdsm.PredictorConfig{{Kind: specdsm.VMSP, Depth: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 || r.Reads == 0 || r.WriteLike() == 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if r.RequestShare() <= 0 || r.RequestShare() >= 1 {
		t.Fatalf("request share %v out of range", r.RequestShare())
	}
	pr, ok := r.Predictor(specdsm.VMSP, 1)
	if !ok || pr.Tracked == 0 {
		t.Fatalf("missing predictor result: %+v", r.Predictors)
	}
	if _, ok := r.Predictor(specdsm.Cosmos, 1); ok {
		t.Fatal("unexpected predictor result")
	}
	if r.SpecHits != 0 || r.SpecReadsFR != 0 {
		t.Fatal("speculation counters must be zero in base mode")
	}
}

func TestSpeculationModesOrdering(t *testing.T) {
	w, err := specdsm.AppWorkload("em3d", specdsm.WorkloadParams{Nodes: 8, Iterations: 6, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode specdsm.Mode) *specdsm.RunResult {
		r, err := specdsm.Run(w, specdsm.MachineOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run(specdsm.ModeBase)
	fr := run(specdsm.ModeFR)
	swi := run(specdsm.ModeSWI)
	if !(swi.Cycles < fr.Cycles && fr.Cycles < base.Cycles) {
		t.Fatalf("em3d ordering violated: base %d, fr %d, swi %d",
			base.Cycles, fr.Cycles, swi.Cycles)
	}
	if swi.SWIRecalls == 0 || swi.SpecReadsSWI == 0 {
		t.Fatalf("SWI inactive: %+v", swi)
	}
	if fr.SpecReadsSWI != 0 {
		t.Fatal("FR-DSM must not perform SWI")
	}
}

// The headline result of the paper, asserted as shape: at default machine
// size with modest scale, VMSP's mean accuracy beats MSP's, which beats
// Cosmos's, and VMSP wins most on the re-ordering-heavy applications.
func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor study is slow for -short")
	}
	study, err := specdsm.PredictorStudy(specdsm.StudyConfig{
		Scale:         0.5,
		Depths:        []int{1},
		DisableChecks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := specdsm.Figure7(study)
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	var cosmos, msp, vmsp float64
	byApp := map[string]specdsm.Figure7Row{}
	for _, r := range rows {
		cosmos += r.Cosmos
		msp += r.MSP
		vmsp += r.VMSP
		byApp[r.App] = r
	}
	n := float64(len(rows))
	cosmos, msp, vmsp = cosmos/n, msp/n, vmsp/n
	if !(vmsp > msp && msp > cosmos) {
		t.Fatalf("mean accuracy ordering violated: Cosmos %.3f MSP %.3f VMSP %.3f", cosmos, msp, vmsp)
	}
	if vmsp < 0.85 {
		t.Fatalf("mean VMSP accuracy %.3f below the paper's ~93%% ballpark", vmsp)
	}
	// Wide read re-ordering (unstructured): VMSP far above MSP.
	u := byApp["unstructured"]
	if u.VMSP < u.MSP+0.3 {
		t.Fatalf("unstructured: VMSP %.3f should dominate MSP %.3f", u.VMSP, u.MSP)
	}
	// tomcatv is fully predictable for every predictor.
	tv := byApp["tomcatv"]
	if tv.Cosmos < 0.9 || tv.MSP < 0.95 || tv.VMSP < 0.95 {
		t.Fatalf("tomcatv should be near-perfect: %+v", tv)
	}
}

func TestFigure8DepthMonotonicityOnAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor study is slow for -short")
	}
	study, err := specdsm.PredictorStudy(specdsm.StudyConfig{
		Scale:         0.25,
		Depths:        []int{1, 2, 4},
		DisableChecks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := specdsm.Figure8(study, []int{1, 2, 4})
	for _, kind := range specdsm.Kinds() {
		var means [3]float64
		for _, r := range rows {
			for i := range r.Depths {
				means[i] += r.Accuracy[kind][i]
			}
		}
		if !(means[2] >= means[0]) {
			t.Fatalf("%s: depth 4 mean %.3f below depth 1 %.3f", kind, means[2], means[0])
		}
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor study is slow for -short")
	}
	study, err := specdsm.PredictorStudy(specdsm.StudyConfig{
		Scale:         0.25,
		Depths:        []int{1, 4},
		DisableChecks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range specdsm.Table4(study) {
		if !(r.PTE1[specdsm.Cosmos] >= r.PTE1[specdsm.MSP]) {
			t.Errorf("%s: Cosmos pte %.1f < MSP %.1f", r.App, r.PTE1[specdsm.Cosmos], r.PTE1[specdsm.MSP])
		}
		// VMSP needs at most as many entries as MSP, up to noise on
		// single-consumer apps where runs are single-reader (the paper
		// shows them equal on ocean and tomcatv).
		if !(r.PTE1[specdsm.MSP] >= r.PTE1[specdsm.VMSP]-0.5) {
			t.Errorf("%s: MSP pte %.1f < VMSP %.1f", r.App, r.PTE1[specdsm.MSP], r.PTE1[specdsm.VMSP])
		}
		if !(r.PTE4[specdsm.Cosmos] >= r.PTE1[specdsm.Cosmos]) {
			t.Errorf("%s: Cosmos pte should grow with depth", r.App)
		}
		// MSP storage is roughly half of Cosmos (the paper's claim).
		if r.Bytes[specdsm.MSP] > 0.75*r.Bytes[specdsm.Cosmos] {
			t.Errorf("%s: MSP bytes %.1f not well under Cosmos %.1f",
				r.App, r.Bytes[specdsm.MSP], r.Bytes[specdsm.Cosmos])
		}
	}
}

func TestValidateConfig(t *testing.T) {
	if err := (specdsm.StudyConfig{}).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (specdsm.StudyConfig{Apps: []string{"nope"}}).Validate(); err == nil {
		t.Fatal("expected unknown-app error")
	}
	if err := (specdsm.StudyConfig{Depths: []int{0}}).Validate(); err == nil {
		t.Fatal("expected bad-depth error")
	}
}

// TestValidateRefusesBadNodesAndScale: machine sizes the workload
// generators cannot build and non-finite or non-positive scales are
// refused with a reason, before any job runs.
func TestValidateRefusesBadNodesAndScale(t *testing.T) {
	cases := []struct {
		name string
		cfg  specdsm.StudyConfig
		want string
	}{
		{"negative nodes", specdsm.StudyConfig{Nodes: -3}, "invalid node count -3"},
		{"too many nodes", specdsm.StudyConfig{Nodes: 5000}, "invalid node count 5000"},
		{"NaN scale", specdsm.StudyConfig{Scale: math.NaN()}, "invalid scale NaN"},
		{"negative scale", specdsm.StudyConfig{Scale: -1}, "invalid scale -1"},
		{"infinite scale", specdsm.StudyConfig{Scale: math.Inf(1)}, "invalid scale +Inf"},
		{"negative iterations", specdsm.StudyConfig{Iterations: -3}, "negative iteration count -3"},
		{"too many iterations", specdsm.StudyConfig{Iterations: 5000}, "iteration count 5000 above the cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want a refusal mentioning %q", err, tc.want)
			}
		})
	}
}

func TestAnalyticReexports(t *testing.T) {
	p := specdsm.AnalyticParams{C: 1, F: 1, P: 1, RTL: 4, N: 2}
	if got := specdsm.AnalyticSpeedup(p); got < 3.99 || got > 4.01 {
		t.Fatalf("speedup = %v", got)
	}
	if got := specdsm.AnalyticCommSpeedup(p); got < 3.99 || got > 4.01 {
		t.Fatalf("comm speedup = %v", got)
	}
	panels := specdsm.Figure6()
	if len(panels) != 4 {
		t.Fatalf("%d panels", len(panels))
	}
	for _, p := range panels {
		if len(p.Series) == 0 || p.Title == "" {
			t.Fatalf("malformed panel %+v", p.Title)
		}
	}
}

func TestRenderers(t *testing.T) {
	if s := specdsm.RenderTable1(); !strings.Contains(s, "418") {
		t.Error("Table 1 missing round-trip latency")
	}
	if s := specdsm.RenderTable2(); !strings.Contains(s, "em3d") {
		t.Error("Table 2 missing applications")
	}
	if s := specdsm.RenderFigure6(); !strings.Contains(s, "rtl") {
		t.Error("Figure 6 missing curves")
	}
	rows := []specdsm.Figure7Row{{App: "em3d", Cosmos: 0.85, MSP: 0.99, VMSP: 0.99}}
	if s := specdsm.RenderFigure7(rows); !strings.Contains(s, "em3d") || !strings.Contains(s, "99.0") {
		t.Error("Figure 7 render wrong")
	}
	t3 := []specdsm.Table3Row{{
		App:      "em3d",
		Coverage: map[specdsm.PredictorKind]float64{specdsm.Cosmos: 0.9, specdsm.MSP: 0.9, specdsm.VMSP: 0.9},
		Correct:  map[specdsm.PredictorKind]float64{specdsm.Cosmos: 0.8, specdsm.MSP: 0.8, specdsm.VMSP: 0.8},
	}}
	if s := specdsm.RenderTable3(t3); !strings.Contains(s, "90.0 (80.0)") {
		t.Errorf("Table 3 render wrong:\n%s", specdsm.RenderTable3(t3))
	}
}

func TestMicroWorkloadsRunAllModes(t *testing.T) {
	for _, pat := range []specdsm.MicroPattern{
		specdsm.PatternProducerConsumer,
		specdsm.PatternMigratory,
		specdsm.PatternStencil,
	} {
		w, err := specdsm.MicroWorkload(pat, specdsm.WorkloadParams{Nodes: 4, Iterations: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []specdsm.Mode{specdsm.ModeBase, specdsm.ModeFR, specdsm.ModeSWI} {
			if _, err := specdsm.Run(w, specdsm.MachineOptions{Mode: mode}); err != nil {
				t.Fatalf("%s/%s: %v", pat, mode, err)
			}
		}
	}
}

func TestFiniteCacheCapacity(t *testing.T) {
	w, err := specdsm.AppWorkload("em3d", specdsm.WorkloadParams{Nodes: 8, Iterations: 4, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	inf, err := specdsm.Run(w, specdsm.MachineOptions{Mode: specdsm.ModeSWI})
	if err != nil {
		t.Fatal(err)
	}
	small, err := specdsm.Run(w, specdsm.MachineOptions{Mode: specdsm.ModeSWI, CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if inf.Evictions != 0 {
		t.Fatalf("unbounded cache evicted %d lines", inf.Evictions)
	}
	if small.Evictions == 0 {
		t.Fatal("16-line cache never evicted")
	}
	// Capacity misses reintroduce request traffic and slow the run.
	if small.Cycles <= inf.Cycles {
		t.Fatalf("finite cache not slower: %d vs %d", small.Cycles, inf.Cycles)
	}
	if _, err := specdsm.Run(w, specdsm.MachineOptions{CacheCapacity: -1}); err == nil {
		t.Fatal("expected negative-capacity error")
	}
}

// All seven applications must run under all three modes with coherence
// checking enabled — the broadest integration test in the suite.
func TestAllAppsAllModes(t *testing.T) {
	for _, app := range specdsm.AppNames() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			w, err := specdsm.AppWorkload(app, specdsm.WorkloadParams{
				Nodes: 16, Iterations: 3, Scale: 0.25, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []specdsm.Mode{specdsm.ModeBase, specdsm.ModeFR, specdsm.ModeSWI} {
				if _, err := specdsm.Run(w, specdsm.MachineOptions{Mode: mode}); err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
			}
		})
	}
}
