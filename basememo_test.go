package specdsm

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// ForgetBaseRuns empties the Base-run memo, so that a test or benchmark
// of the speculation study simulates every Base run instead of serving
// runs an earlier predictor study left behind.
func ForgetBaseRuns() {
	baseMemo.Lock()
	defer baseMemo.Unlock()
	clear(baseMemo.m)
}

func baseMemoHits() int {
	baseMemo.Lock()
	defer baseMemo.Unlock()
	return baseMemo.hits
}

// TestObserversLeaveBaseRunUnchanged pins the premise of the Base-run
// memo: Base-DSM with the predictor study's nine passive observers
// returns the same RunResult as plain Base-DSM apart from Predictors,
// Events and NetMsgs included. 65 nodes takes the wide ReaderVec path.
func TestObserversLeaveBaseRunUnchanged(t *testing.T) {
	var observers []PredictorConfig
	for _, kind := range Kinds() {
		for _, d := range []int{1, 2, 4} {
			observers = append(observers, PredictorConfig{Kind: kind, Depth: d})
		}
	}
	for _, nodes := range []int{16, 65} {
		for _, app := range AppNames() {
			t.Run(fmt.Sprintf("%s/n%d", app, nodes), func(t *testing.T) {
				w, err := AppWorkload(app, WorkloadParams{Nodes: nodes, Scale: 0.1})
				if err != nil {
					t.Fatal(err)
				}
				observed, err := Run(w, MachineOptions{Mode: ModeBase, Observers: observers})
				if err != nil {
					t.Fatal(err)
				}
				plain, err := Run(w, MachineOptions{Mode: ModeBase})
				if err != nil {
					t.Fatal(err)
				}
				if len(observed.Predictors) != len(observers) {
					t.Fatalf("observed run reports %d predictors, want %d", len(observed.Predictors), len(observers))
				}
				observed.Predictors = nil
				if !reflect.DeepEqual(observed, plain) {
					t.Fatalf("observers changed the Base run:\nobserved %+v\nplain    %+v", observed, plain)
				}
			})
		}
	}
}

// TestBaseMemoKey: the speculation job's Base slot is served from the
// memo only for exactly the machine the predictor job ran. Changing any
// one input misses, and a hit is a private copy of the plain Base run.
func TestBaseMemoKey(t *testing.T) {
	ForgetBaseRuns()
	t.Cleanup(ForgetBaseRuns)
	ctx := context.Background()
	base := StudyConfig{Apps: []string{"em3d"}, Nodes: 4, Iterations: 1, Scale: 0.1, Seed: 3, Depths: []int{1}}.withDefaults()
	if _, err := predictorJob(base)(ctx, 0); err != nil {
		t.Fatal(err)
	}
	baseRun := func(cfg StudyConfig) (*RunResult, bool) {
		t.Helper()
		h := baseMemoHits()
		r, err := speculationJob(cfg)(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r, baseMemoHits() != h
	}
	for _, tc := range []struct {
		name string
		edit func(*StudyConfig)
	}{
		{"app", func(c *StudyConfig) { c.Apps = []string{"moldyn"} }},
		{"nodes", func(c *StudyConfig) { c.Nodes = 5 }},
		{"iterations", func(c *StudyConfig) { c.Iterations = 2 }},
		{"scale", func(c *StudyConfig) { c.Scale = 0.2 }},
		{"seed", func(c *StudyConfig) { c.Seed = 4 }},
		{"checks", func(c *StudyConfig) { c.DisableChecks = true }},
	} {
		cfg := base
		tc.edit(&cfg)
		if _, hit := baseRun(cfg); hit {
			t.Errorf("changing %s still hit the memo", tc.name)
		}
	}

	w, err := AppWorkload("em3d", base.workloadParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(w, MachineOptions{Mode: ModeBase})
	if err != nil {
		t.Fatal(err)
	}
	first, hit := baseRun(base)
	if !hit || !reflect.DeepEqual(first, want) {
		t.Fatalf("hit = %v, run %+v; want a hit equal to plain Base %+v", hit, first, want)
	}
	first.Cycles++
	first.Predictors = append(first.Predictors, PredictorResult{Kind: VMSP, Depth: 1})
	if second, hit := baseRun(base); !hit || !reflect.DeepEqual(second, want) {
		t.Fatalf("after mutating the first hit: hit = %v, run %+v; want %+v", hit, second, want)
	}
}

// TestSpeculationRowsIndependentOfMemo: a speculation study run alone
// and one run right after its predictor study (every Base run a memo
// hit) emit the same rows.
func TestSpeculationRowsIndependentOfMemo(t *testing.T) {
	ForgetBaseRuns()
	t.Cleanup(ForgetBaseRuns)
	cfg := StudyConfig{Scale: 0.1, Depths: []int{1}, Parallel: 2}
	h := baseMemoHits()
	alone, err := SpeculationStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if baseMemoHits() != h {
		t.Fatal("a speculation study run alone hit the memo")
	}
	if _, err := PredictorStudy(cfg); err != nil {
		t.Fatal(err)
	}
	h = baseMemoHits()
	after, err := SpeculationStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := baseMemoHits()-h, len(AppNames()); got != want {
		t.Fatalf("%d Base runs served from the memo, want %d", got, want)
	}
	if !reflect.DeepEqual(alone, after) {
		t.Fatal("speculation rows differ when the Base runs come from the memo")
	}
}
