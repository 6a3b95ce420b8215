package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"specdsm"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	p90 := percentile(xs, 0.9)
	if p90 != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", p90)
	}
	beyond := 0
	for _, x := range xs {
		if x > p90 {
			beyond++
		}
	}
	if beyond < 10 {
		t.Errorf("p90 of 100 samples leaves %d beyond it, want at least 10", beyond)
	}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.9, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
		{[]float64{1, 2, 3}, 1, 3},
	} {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestJobPercentile(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	// Evenly spread samples: the nearest-rank values.
	if got := jobPercentile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := jobPercentile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	// Too few samples to average: nearest rank.
	if got := jobPercentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("p50 of 1..3 = %v, want 2", got)
	}
	// Two clusters with the median at their boundary: moving one sample
	// across the gap moves the estimate by a small part of the gap,
	// where the nearest-rank median jumps across all of it.
	clusters := func(low int) []float64 {
		var xs []float64
		for i := 0; i < 100; i++ {
			if i < low {
				xs = append(xs, 10)
			} else {
				xs = append(xs, 20)
			}
		}
		return xs
	}
	a, b := clusters(49), clusters(50)
	if jump := percentile(b, 0.5) - percentile(a, 0.5); jump != -10 {
		t.Fatalf("nearest-rank jump = %v, want -10", jump)
	}
	if d := jobPercentile(a, 0.5) - jobPercentile(b, 0.5); d <= 0 || d > 1 {
		t.Errorf("smoothed p50 moved by %v, want (0, 1]", d)
	}
}

func TestEveryInternalPackageHasALayer(t *testing.T) {
	dirs, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkg := "specdsm/internal/" + d.Name()
		l, ok := layerOfPackage[pkg]
		if !ok {
			t.Errorf("%s has no layer in layerOfPackage", pkg)
			continue
		}
		if !known[l] {
			t.Errorf("%s maps to %q, which is not a layer", pkg, l)
		}
		if got := layerOf([]string{pkg + ".F"}); got != l {
			t.Errorf("layerOf(%s.F) = %q, want %q", pkg, got, l)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// The innermost module frame decides; runtime work it calls is its own.
		{[]string{"runtime.mapaccess2", "specdsm/internal/protocol.(*System).noteVersion", "specdsm/internal/sim.(*Kernel).Run"}, "protocol"},
		{[]string{"specdsm/internal/sim.(*Kernel).drainRing", "specdsm/internal/machine.(*Machine).Run"}, "sim"},
		// Type arguments may name other packages.
		{[]string{"specdsm/internal/sweep.StreamCheckpointFail[go.shape.*specdsm/internal/mem.ReaderVec]"}, "sweep"},
		{[]string{"specdsm/internal/mem.(*ReaderVec[go.shape.int]).With"}, "mem"},
		// The root package is the study layer, except its remote dispatch.
		{[]string{"encoding/gob.(*Encoder).Encode", "specdsm.runnerFor[go.shape.struct {}].func1"}, "remote"},
		{[]string{"specdsm.PredictorStudyStream.func1"}, "sweep"},
		{[]string{"encoding/gob.(*Encoder).Encode", "specdsm/internal/sweep.(*Checkpoint).Flush"}, "sweep"},
		// No module frame: the runtime's own work, or other.
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read"}, "other"},
		{nil, "other"},
		// The benchmark's own code is other, even under a module frame.
		{[]string{"main.writeValue", "specdsm/internal/sweep.StreamCheckpointFail"}, "other"},
		// A module package missing from the table is other.
		{[]string{"specdsm/internal/newpkg.F"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestFractionsSumToOne(t *testing.T) {
	p := &profile{types: []string{"cpu/nanoseconds"}, samples: []sample{
		{stack: []string{"specdsm/internal/core.(*VMSP).Observe"}, values: []int64{30}},
		{stack: []string{"runtime.gcBgMarkWorker"}, values: []int64{10}},
		{stack: []string{"internal/poll.(*FD).Read"}, values: []int64{10}},
		{stack: []string{"specdsm/internal/network.(*Network).Send"}, values: []int64{50}},
	}}
	f := fractions(p.byLayer(0))
	if len(f) != len(layers) {
		t.Fatalf("fractions has %d layers, want %d", len(f), len(layers))
	}
	sum := 0.0
	for _, v := range f {
		sum += v
	}
	if sum < 1-1e-12 || sum > 1+1e-12 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
	if f["core"] != 0.3 || f["network"] != 0.5 || f["runtime"] != 0.1 || f["other"] != 0.1 {
		t.Errorf("fractions = %v", f)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestParseRealProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	col, err := p.column("cpu/nanoseconds")
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range p.samples {
		total += s.values[col]
		for _, fn := range s.stack {
			if fn == "specdsm/perfbench.spin" || fn == "main.spin" {
				inSpin += s.values[col]
				break
			}
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Errorf("spin has %d of %d profiled ns, want most", inSpin, total)
	}

	allocs, err := allocProfile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := allocBytesByLayer(allocs); err != nil {
		t.Fatal(err)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

// digestOf runs the predictor and speculation studies on a reduced
// matrix and returns the digest of their rows.
func digestOf(t *testing.T, parallel int) string {
	t.Helper()
	cfg := specdsm.StudyConfig{Apps: []string{"em3d", "barnes", "ocean"}, Scale: 0.1, Seed: 3, Parallel: parallel}
	h := newRowHasher()
	if err := specdsm.PredictorStudyStream(cfg, func(_ int, row specdsm.AppPrediction) error { h.add(row); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := specdsm.SpeculationStudyStream(cfg, func(_ int, row specdsm.AppSpeculation) error { h.add(row); return nil }); err != nil {
		t.Fatal(err)
	}
	return h.sum()
}

func TestDigestStableAcrossParallel(t *testing.T) {
	d1 := digestOf(t, 1)
	for _, p := range []int{2, 4} {
		if d := digestOf(t, p); d != d1 {
			t.Errorf("digest at -parallel %d = %s, want %s (-parallel 1)", p, d, d1)
		}
	}
}

func TestDigestSeesEveryField(t *testing.T) {
	base := specdsm.AppSpeculation{App: "em3d", Base: &specdsm.RunResult{Events: 5, Predictors: []specdsm.PredictorResult{{Kind: specdsm.VMSP, Accuracy: 0.5}}}}
	digest := func(row any) string {
		h := newRowHasher()
		h.add(row)
		return h.sum()
	}
	d0 := digest(base)
	changed := base
	changed.Base = &specdsm.RunResult{Events: 5, Predictors: []specdsm.PredictorResult{{Kind: specdsm.VMSP, Accuracy: 0.25}}}
	if digest(changed) == d0 {
		t.Error("digest ignores a predictor's accuracy")
	}
	// A row that crossed the gob wire has nil where an in-process row
	// may have an empty slice; both must digest alike.
	empty := specdsm.RunResult{Predictors: []specdsm.PredictorResult{}}
	if digest(empty) != digest(specdsm.RunResult{}) {
		t.Error("nil and empty slices digest differently")
	}
	m1 := specdsm.AppPrediction{Results: map[specdsm.PredictorConfig]specdsm.PredictorResult{}}
	m2 := specdsm.AppPrediction{Results: map[specdsm.PredictorConfig]specdsm.PredictorResult{}}
	for _, k := range specdsm.Kinds() {
		m1.Results[specdsm.PredictorConfig{Kind: k, Depth: 1}] = specdsm.PredictorResult{Kind: k}
	}
	for i := len(specdsm.Kinds()) - 1; i >= 0; i-- {
		k := specdsm.Kinds()[i]
		m2.Results[specdsm.PredictorConfig{Kind: k, Depth: 1}] = specdsm.PredictorResult{Kind: k}
	}
	if digest(m1) != digest(m2) {
		t.Error("map digest depends on insertion order")
	}
}

func TestReferenceDigests(t *testing.T) {
	refs := map[string]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		if len(refs[name]) != 64 {
			t.Errorf("reference digest for %s is %q", name, refs[name])
		}
	}
	// small-ckpt-1w and remote-2shard run the same jobs, locally and on
	// shards: the local == remote contract.
	if refs["small-ckpt-1w"] != refs["remote-2shard"] {
		t.Error("small-ckpt-1w and remote-2shard references differ")
	}
}

// The benchmark credits a predictor-study job with the events and
// messages of the Base run of the same input; that holds only while
// passive observers change nothing simulated.
func TestObserversChangeNothingSimulated(t *testing.T) {
	w, err := specdsm.AppWorkload("em3d", specdsm.WorkloadParams{Scale: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var obs []specdsm.PredictorConfig
	for _, k := range specdsm.Kinds() {
		for _, d := range []int{1, 2, 4} {
			obs = append(obs, specdsm.PredictorConfig{Kind: k, Depth: d})
		}
	}
	plain, err := specdsm.Run(w, specdsm.MachineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := specdsm.Run(w, specdsm.MachineOptions{Observers: obs})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Events != observed.Events || plain.NetMsgs != observed.NetMsgs || plain.Cycles != observed.Cycles {
		t.Errorf("observers changed the run: events %d/%d, msgs %d/%d, cycles %d/%d",
			plain.Events, observed.Events, plain.NetMsgs, observed.NetMsgs, plain.Cycles, observed.Cycles)
	}
}

func TestNewSpecScalesWithSeconds(t *testing.T) {
	for _, name := range workloadNames {
		short, err := newSpec(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		long, err := newSpec(name, 20)
		if err != nil {
			t.Fatal(err)
		}
		if short.seeds*short.passes < 1 || long.seeds*long.passes <= short.seeds*short.passes {
			t.Errorf("%s: %d x %d at 1 s, %d x %d at 20 s", name, short.seeds, short.passes, long.seeds, long.passes)
		}
		// paper-n16 and wide-swi must find their inputs in the
		// generation cache (64 entries) on every pass; small-ckpt-1w and
		// remote-2shard must generate theirs in the timed phase.
		n := len(long.cells(1))
		if warm := name == "paper-n16" || name == "wide-swi"; warm != (n <= 64) {
			t.Errorf("%s has %d inputs per pass", name, n)
		}
	}
	if _, err := newSpec("nope", 10); err == nil {
		t.Error("newSpec accepted an unknown workload")
	}
}
