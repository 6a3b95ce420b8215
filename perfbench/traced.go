package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"specdsm"
)

// layerProfile is what the traced phase's profiles say per layer.
type layerProfile struct {
	cpuFrac      map[string]float64
	checkerFrac  float64
	ckptFlushMS  float64
	memAllocFrac float64
	samples      int
}

// profilePhase runs the timed phase again under a CPU profile, between
// two allocation profiles, with spans recorded.
func profilePhase(e *env, spans *spanLog, o options) (*phase, *layerProfile, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-s%d", e.sp.name, o.seed))
	allocs0, err := allocProfile()
	if err != nil {
		return nil, nil, err
	}
	var cpuBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		return nil, nil, err
	}
	ph := runPhase(e, spans, "traced")
	pprof.StopCPUProfile()
	allocs1, err := allocProfile()
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", cpuBuf.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(base+".allocs.pprof", allocs1, 0o644); err != nil {
		return nil, nil, err
	}

	cpu, err := parseProfile(cpuBuf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	col, err := cpu.column("cpu/nanoseconds")
	if err != nil {
		return nil, nil, err
	}
	byLayer := cpu.byLayer(col)
	lp := &layerProfile{cpuFrac: fractions(byLayer), samples: len(cpu.samples)}
	if total := sumValues(byLayer); total > 0 {
		checker := cpu.sumWhere(col, func(stack []string) bool {
			fn := deciding(stack)
			return strings.HasPrefix(fn, "specdsm/internal/protocol.(*System).noteVersion") ||
				strings.HasPrefix(fn, "specdsm/internal/protocol.(*System).checkObserved")
		})
		lp.checkerFrac = float64(checker) / float64(total)
	}
	lp.ckptFlushMS = float64(cpu.sumWhere(col, func(stack []string) bool {
		for _, fn := range stack {
			if fn == "specdsm/internal/sweep.(*Checkpoint).Flush" {
				return true
			}
		}
		return false
	})) / 1e6

	memBefore, err := allocBytesByLayer(allocs0)
	if err != nil {
		return nil, nil, err
	}
	memAfter, err := allocBytesByLayer(allocs1)
	if err != nil {
		return nil, nil, err
	}
	if total := sumValues(memAfter) - sumValues(memBefore); total > 0 {
		lp.memAllocFrac = float64(memAfter["mem"]-memBefore["mem"]) / float64(total)
	}
	return ph, lp, nil
}

// allocProfile returns the process's cumulative allocation profile,
// current as of a fresh garbage collection.
func allocProfile() ([]byte, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func allocBytesByLayer(data []byte) (map[string]int64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	col, err := p.column("alloc_space/bytes")
	if err != nil {
		return nil, err
	}
	return p.byLayer(col), nil
}

// perLayer prints the per-layer metrics of the traced run.
func perLayer(r *report, e *env, timed, ph *phase, lp *layerProfile) {
	wall := ph.wall.Seconds()
	sims := float64(ph.sims)
	workers := float64(e.sp.workerCount())
	fmt.Printf("per-layer (traced phase %.3f s, %d CPU samples; counts are exact):\n", wall, lp.samples)
	add := func(name string, v float64, unit, note string) { r.add(name, v, unit, true, note) }
	frac := func(l string) { add(l+".cpu_frac", lp.cpuFrac[l], "ratio", "") }

	add("sim.events", float64(ph.c.events), "count", "")
	frac("sim")
	add("sim.ns_per_event", sum(ph.jobCPUMS)*1e6/float64(max(ph.c.events, 1)), "ns", "job CPU-time estimate per simulated event")

	add("network.msgs", float64(ph.c.msgs), "count", "")
	add("network.msgs_per_req", float64(ph.c.msgs)/float64(max(ph.c.requests, 1)), "ratio", "")
	frac("network")

	add("protocol.requests", float64(ph.c.requests), "count", "")
	frac("protocol")
	add("protocol.checker_cpu_frac", lp.checkerFrac, "ratio", "coherence checker")
	add("protocol.spec_useful_frac", float64(ph.c.specHits)/float64(max(ph.c.specSent, 1)), "ratio",
		fmt.Sprintf("%d of %d speculative reads used", ph.c.specHits, ph.c.specSent))

	add("core.observations", float64(ph.c.observations), "count", "")
	frac("core")
	obsNS, obsNote := observeNS(e, ph.spans)
	add("core.observe_ns", obsNS, "ns", obsNote)

	frac("mem")
	add("mem.alloc_frac", lp.memAllocFrac, "ratio", "share of sampled heap bytes")
	frac("machine")

	add("workload.gen_ms", e.genMS, "ms", "cold AppWorkload calls in set-up")
	add("workload.ops", float64(e.ops), "count", "")
	frac("workload")

	busy := float64(ph.jobNS) / 1e9
	add("sweep.busy_frac", busy/(workers*wall), "ratio", "")
	add("sweep.overhead_us_per_job", (workers*wall-busy)/sims*1e6, "us", "")
	add("sweep.merge_wait_p90_ms", percentile(ph.mergeMS, 0.9), "ms", fmt.Sprintf("%d samples", len(ph.mergeMS)))
	add("sweep.ckpt_flush_ms", lp.ckptFlushMS, "ms", "CPU profile time under (*Checkpoint).Flush")
	ckKB := 0.0
	if e.ckRoot != "" {
		ckKB = checkpointKB(e.ckRoot, "traced-")
	}
	add("sweep.ckpt_kb", ckKB, "KB", "")
	frac("sweep")

	remoteOverhead := 0.0
	if len(e.addrs) > 0 {
		remoteOverhead = (float64(len(e.addrs))*wall - ph.shardBusy.Seconds()) / sims * 1e6
	}
	add("remote.overhead_us_per_job", remoteOverhead, "us", "")
	frac("remote")
	add("remote.local_jobs", float64(timed.localJobs+ph.localJobs), "count", "")
	add("remote.reconnects", float64(e.ledger.reconnects.Load()), "count", "")

	frac("runtime")
	gc := 0.0
	if ph.totalCPU > 0 {
		gc = ph.gcCPU / ph.totalCPU
	}
	add("runtime.gc_cpu_frac", gc, "ratio", "")
	add("runtime.cpu_util", ph.cpu.Seconds()/(wall*float64(runtime.GOMAXPROCS(0))), "ratio", "")
	frac("other")

	total := 0.0
	for _, l := range layers {
		total += lp.cpuFrac[l]
	}
	fmt.Printf("  cpu_frac buckets sum to %.6f\n", total)
	ratio := (sims / ph.cpu.Seconds()) / (float64(timed.sims) / timed.cpu.Seconds())
	add("trace.sims_per_s_ratio", ratio, "ratio", "traced over untraced simulations per CPU-second: the tracing overhead")
}

// observeNS times predictor replay: EvaluateTrace over a trace of the
// workload's largest input, with all nine predictors and with none; the
// difference per observation per predictor is the replay cost without
// the trace decoding both calls share.
func observeNS(e *env, spans *spanLog) (float64, string) {
	c := e.largest
	w, err := specdsm.AppWorkload(c.app, c.p)
	if err != nil {
		return 0, err.Error()
	}
	mode := specdsm.ModeBase
	if len(e.sp.nodes) > 1 {
		mode = specdsm.ModeSWI
	}
	var buf bytes.Buffer
	if _, _, err := specdsm.CaptureTrace(w, specdsm.MachineOptions{Mode: mode}, &buf); err != nil {
		return 0, err.Error()
	}
	var all []specdsm.PredictorConfig
	for _, k := range specdsm.Kinds() {
		for _, d := range []int{1, 2, 4} {
			all = append(all, specdsm.PredictorConfig{Kind: k, Depth: d})
		}
	}
	const reps = 5
	timeEval := func(cfgs []specdsm.PredictorConfig) (float64, int) {
		var ts []float64
		events := 0
		for i := 0; i < reps; i++ {
			start := time.Now()
			_, sum, err := specdsm.EvaluateTrace(bytes.NewReader(buf.Bytes()), cfgs)
			end := time.Now()
			if err != nil {
				return 0, 0
			}
			spans.add(fmt.Sprintf("EvaluateTrace %d predictors", len(cfgs)), start, end, -1, -1)
			ts = append(ts, float64(end.Sub(start).Nanoseconds()))
			events = sum.Events
		}
		return percentile(ts, 0.5), events
	}
	tAll, events := timeEval(all)
	tNone, _ := timeEval(nil)
	if events == 0 {
		return 0, "no trace events"
	}
	return (tAll - tNone) / float64(events*len(all)), fmt.Sprintf("%s at %d nodes, %d observations", c.app, c.p.Nodes, events)
}
