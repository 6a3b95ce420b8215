package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"specdsm"
)

// counts are exact sums over the simulated results of a phase.
type counts struct {
	events       uint64 // RunResult.Events
	msgs         uint64 // RunResult.NetMsgs
	requests     uint64 // reads + writes + upgrades at the directories
	observations uint64 // messages tracked, summed over predictors
	specSent     uint64 // speculative reads sent (FR + SWI)
	specHits     uint64 // speculative copies referenced
}

// phase is one timed run of a workload's passes.
type phase struct {
	e     *env
	spans *spanLog // nil when untraced

	mu        sync.Mutex
	jobMS     []float64 // host time per simulation, from OnJobDone
	jobNS     int64     // their sum
	mergeMS   []float64 // OnJobDone to ordered emit, per simulation
	sims      int       // simulations attempted
	failed    int       // simulations failed
	problems  []string  // why simulations failed
	c         counts
	digests   []string // one per pass
	calls     []string // digest of each study call of the first pass
	localJobs int      // jobs the remote dispatcher settled in-process
	baseReqs  map[string][3]uint64

	fig9FR, fig9SWI, vmspAcc []float64 // per (seed, application), first pass

	// Host time is measured in process CPU time: on a shared host, other
	// tenants stretch wall time by up to 2x between identical runs while
	// CPU time per simulation moves by about a tenth. simRates is
	// simulations per wall second of each pass, for reference;
	// cpuSimRates and cpuEventRates are simulations and events per
	// CPU-second of each pass, whose medians the throughput metrics
	// report. jobCPUMS apportions each study call's process CPU time to
	// its jobs in proportion to their wall time: a job's CPU time, if the
	// call's contention and overhead spread evenly over its jobs.
	simRates                   []float64
	cpuSimRates, cpuEventRates []float64
	jobCPUMS                   []float64

	wall       time.Duration
	allocBytes uint64
	cpu        time.Duration // process CPU time
	gcCPU      float64       // seconds, runtime/metrics estimate
	totalCPU   float64       // seconds, runtime/metrics estimate
	shardBusy  time.Duration
}

// fail records simulations that failed, with the reason.
func (ph *phase) fail(n int, format string, args ...any) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.failed += n
	if len(ph.problems) < 20 {
		ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
	}
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

type runtimeReading struct {
	at      time.Time
	alloc   uint64
	gcCPU   float64
	total   float64
	procCPU time.Duration
}

// processCPU returns the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readRuntime() runtimeReading {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeReading{
		at:      time.Now(),
		alloc:   s[0].Value.Uint64(),
		gcCPU:   s[1].Value.Float64(),
		total:   s[2].Value.Float64(),
		procCPU: processCPU(),
	}
}

// runPhase runs every pass of the workload once and measures it. tag
// keeps the checkpoint files of different phases apart.
func runPhase(e *env, spans *spanLog, tag string) *phase {
	ph := &phase{e: e, spans: spans, baseReqs: map[string][3]uint64{}}
	busy0 := e.ledger.shardBusy()
	r0 := readRuntime()
	for pass := 0; pass < e.sp.passes; pass++ {
		h := newRowHasher()
		ph.mu.Lock()
		sims0, events0 := ph.sims, ph.c.events
		ph.mu.Unlock()
		start, cpu0 := time.Now(), processCPU()
		for s := e.seed; s < e.seed+int64(e.sp.seeds); s++ {
			for _, study := range e.sp.studies() {
				d := ph.runCall(study, s, fmt.Sprintf("%s-p%d-s%d", tag, pass, s), pass == 0)
				h.add(d)
				if pass == 0 {
					ph.calls = append(ph.calls, d)
				}
			}
		}
		ph.digests = append(ph.digests, h.sum())
		secs := time.Since(start).Seconds()
		cpu := (processCPU() - cpu0).Seconds()
		ph.mu.Lock()
		ph.simRates = append(ph.simRates, float64(ph.sims-sims0)/secs)
		ph.cpuSimRates = append(ph.cpuSimRates, float64(ph.sims-sims0)/cpu)
		ph.cpuEventRates = append(ph.cpuEventRates, float64(ph.c.events-events0)/cpu)
		ph.mu.Unlock()
	}
	r1 := readRuntime()
	ph.wall = r1.at.Sub(r0.at)
	ph.allocBytes = r1.alloc - r0.alloc
	ph.cpu = r1.procCPU - r0.procCPU
	ph.gcCPU = r1.gcCPU - r0.gcCPU
	ph.totalCPU = r1.total - r0.total
	ph.shardBusy = e.ledger.shardBusy() - busy0
	for i := 1; i < len(ph.digests); i++ {
		if ph.digests[i] != ph.digests[0] {
			ph.fail(e.sp.seeds*ph.jobsPerSeed(), "pass %d digest %s differs from pass 0's %s", i, ph.digests[i], ph.digests[0])
		}
	}
	return ph
}

func (ph *phase) jobsPerSeed() int {
	n := 0
	for _, study := range ph.e.sp.studies() {
		n += ph.e.sp.jobsPerCall(study)
	}
	return n
}

// call is the bookkeeping of one study call.
type call struct {
	ph     *phase
	span   int
	doneAt []time.Time
}

func (c *call) jobDone(i int, d time.Duration) {
	now := time.Now()
	c.ph.spans.add("job", now.Add(-d), now, c.span, i)
	c.ph.mu.Lock()
	defer c.ph.mu.Unlock()
	if i >= 0 && i < len(c.doneAt) {
		c.doneAt[i] = now
	}
	c.ph.jobMS = append(c.ph.jobMS, float64(d.Nanoseconds())/1e6)
	c.ph.jobNS += d.Nanoseconds()
}

// emitted records the ordered emit of the row holding jobs [lo, hi).
func (c *call) emitted(lo, hi int, start time.Time) {
	now := time.Now()
	c.ph.spans.add("emit", start, now, c.span, lo)
	c.ph.mu.Lock()
	defer c.ph.mu.Unlock()
	for j := lo; j < hi && j < len(c.doneAt); j++ {
		if !c.doneAt[j].IsZero() {
			c.ph.mergeMS = append(c.ph.mergeMS, float64(start.Sub(c.doneAt[j]).Nanoseconds())/1e6)
		}
	}
}

// runCall runs one study call and returns the digest of its rows.
// first marks the first pass, whose rows feed the fidelity metrics.
func (ph *phase) runCall(study string, seed int64, ckName string, first bool) string {
	e := ph.e
	n := e.sp.jobsPerCall(study)
	start := time.Now()
	c := &call{ph: ph, span: ph.spans.add("study "+study, start, start, -1, -1), doneAt: make([]time.Time, n)}
	cfg := e.config(seed, ckName)
	cfg.OnJobDone = c.jobDone
	h := newRowHasher()
	e.ledger.startCall()
	cpu0 := processCPU()
	ph.mu.Lock()
	jobs0 := len(ph.jobMS)
	ph.mu.Unlock()
	var err error
	switch study {
	case "predictor":
		err = specdsm.PredictorStudyStream(cfg, func(i int, row specdsm.AppPrediction) error {
			t := time.Now()
			h.add(row)
			ph.predictorRow(seed, row, first)
			c.emitted(i, i+1, t)
			return nil
		})
	case "speculation":
		err = specdsm.SpeculationStudyStream(cfg, func(i int, row specdsm.AppSpeculation) error {
			t := time.Now()
			h.add(row)
			ph.speculationRow(seed, row, first)
			c.emitted(3*i, 3*i+3, t)
			return nil
		})
	case "scaling":
		err = specdsm.NodeScalingStudyStream(cfg, e.sp.nodes, func(i int, row specdsm.NodeScaling) error {
			t := time.Now()
			h.add(row)
			ph.scalingRow(row)
			c.emitted(i, i+1, t)
			return nil
		})
	}
	end := time.Now()
	cpuMS := float64((processCPU() - cpu0).Nanoseconds()) / 1e6
	ph.spans.finish(c.span, end)
	ph.mu.Lock()
	ph.sims += n
	wallMS := sum(ph.jobMS[jobs0:])
	for _, ms := range ph.jobMS[jobs0:] {
		ph.jobCPUMS = append(ph.jobCPUMS, ms*cpuMS/wallMS)
	}
	ph.mu.Unlock()
	if err != nil {
		ph.fail(n, "%s study, seed %d: %v", study, seed, err)
	}
	if len(e.addrs) > 0 {
		if local := n - e.ledger.servedJobs(); local > 0 {
			ph.mu.Lock()
			ph.localJobs += local
			ph.mu.Unlock()
			ph.fail(local, "%s study, seed %d: %d jobs settled in-process, not by a shard", study, seed, local)
		}
	}
	return h.sum()
}

func (ph *phase) addRun(r *specdsm.RunResult) {
	ph.c.events += r.Events
	ph.c.msgs += r.NetMsgs
	ph.c.requests += r.Reads + r.Writes + r.Upgrades
	ph.c.specSent += r.SpecReadsFR + r.SpecReadsSWI
	ph.c.specHits += r.SpecHits
	for _, p := range r.Predictors {
		ph.c.observations += p.Tracked
	}
}

func (ph *phase) predictorRow(seed int64, row specdsm.AppPrediction, first bool) {
	if row.Failed != "" {
		ph.fail(1, "predictor study, seed %d, %s: %s", seed, row.App, row.Failed)
		return
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.c.requests += row.Reads + row.Writes + row.Upgrades
	for _, p := range row.Results {
		ph.c.observations += p.Tracked
	}
	ph.baseReqs[fmt.Sprint(seed, row.App)] = [3]uint64{row.Reads, row.Writes, row.Upgrades}
	if first {
		ph.vmspAcc = append(ph.vmspAcc, 100*row.Get(specdsm.VMSP, 1).Accuracy)
	}
}

func (ph *phase) speculationRow(seed int64, row specdsm.AppSpeculation, first bool) {
	if row.Failed != "" {
		ph.fail(3, "speculation study, seed %d, %s: %s", seed, row.App, row.Failed)
		return
	}
	ph.mu.Lock()
	for _, r := range []*specdsm.RunResult{row.Base, row.FR, row.SWI} {
		ph.addRun(r)
	}
	// A predictor-study job is the Base run of the same input with
	// passive observers, which change nothing simulated: credit it the
	// Base run's events and messages, after checking that its request
	// counts agree.
	key := fmt.Sprint(seed, row.App)
	reqs, ok := ph.baseReqs[key]
	delete(ph.baseReqs, key)
	if ok {
		ph.c.events += row.Base.Events
		ph.c.msgs += row.Base.NetMsgs
	}
	if first {
		base := float64(row.Base.Cycles)
		ph.fig9FR = append(ph.fig9FR, 100*float64(row.FR.Cycles)/base)
		ph.fig9SWI = append(ph.fig9SWI, 100*float64(row.SWI.Cycles)/base)
	}
	ph.mu.Unlock()
	if ok && reqs != [3]uint64{row.Base.Reads, row.Base.Writes, row.Base.Upgrades} {
		ph.fail(1, "seed %d, %s: predictor-study requests %v differ from the Base run's", seed, row.App, reqs)
	}
}

func (ph *phase) scalingRow(row specdsm.NodeScaling) {
	if row.Failed != "" {
		ph.fail(1, "scaling study, %s at %d nodes: %s", row.App, row.Nodes, row.Failed)
		return
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.addRun(row.Run)
}

// digest is the phase's result digest: the first pass's, which every
// later pass matched or was counted failed.
func (ph *phase) digest() string { return ph.digests[0] }

// checkpointKB sums the sizes of the checkpoint files under dir.
func checkpointKB(dir, prefix string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), prefix) {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / 1024
}
