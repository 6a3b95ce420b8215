package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specdsm"
	"specdsm/internal/remote"
)

// spec is one workload: its job matrix, derived from the benchmark's
// seed and run length, and the way its jobs execute.
type spec struct {
	name  string
	scale float64
	// nodes lists the machine sizes. More than one selects the
	// node-scaling study (SWI-DSM, VMSP active); one selects the
	// predictor study followed by the speculation study, per seed.
	nodes []int
	// seeds is the number of study seeds s, s+1, ... in one pass.
	seeds int
	// passes is how often the timed phase runs the pass. Every pass
	// runs the same jobs, so every pass must produce the same digest,
	// and each pass is one sample of the timing medians.
	passes int
	// workers is the in-process pool width; 0 selects nproc.
	workers int
	// checkpoint streams every study through a checkpoint flushed after
	// every row.
	checkpoint bool
	// shards, when positive, sends every job to this many loopback
	// remote.Server shards instead of the in-process pool.
	shards int
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-n16", "wide-swi", "small-ckpt-1w", "remote-2shard"}

// newSpec returns the named workload scaled to a run of about seconds
// seconds on a 2-CPU x86-64 host. The job matrix depends only on the
// name and seconds, never on the host's speed, so every count the
// benchmark reports is exact.
func newSpec(name string, seconds int) (spec, error) {
	passes := func(perSecond float64) int {
		return max(1, int(math.Round(float64(seconds)*perSecond)))
	}
	switch name {
	case "paper-n16":
		// 224 jobs of 7-80 ms per pass, about 2.8 s on 2 CPUs. The 56
		// inputs stay in the generation cache (64 entries) across passes.
		return spec{name: name, scale: 1, nodes: []int{16}, seeds: 8, passes: passes(1 / 2.8)}, nil
	case "wide-swi":
		// 56 jobs at 64 and 256 nodes per pass, about 1.7 s on 2 CPUs.
		// Four seeds keep the pass's 56 inputs in the generation cache.
		return spec{name: name, scale: 0.1, nodes: []int{64, 256}, seeds: 4, passes: passes(1 / 1.7)}, nil
	case "small-ckpt-1w":
		// 280 jobs of 2-3 ms per pass, about 1.1 s on one worker. The
		// pass's 70 inputs overflow the generation cache, so every pass
		// generates all of them again inside the timed phase.
		return spec{name: name, scale: 0.1, nodes: []int{16}, seeds: 10, passes: passes(0.9),
			workers: 1, checkpoint: true}, nil
	case "remote-2shard":
		// small-ckpt-1w's pass, so the two digests must agree, about
		// 0.65 s on two shards.
		return spec{name: name, scale: 0.1, nodes: []int{16}, seeds: 10, passes: passes(1.5),
			shards: 2}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// studies returns the study calls of one seed.
func (sp spec) studies() []string {
	if len(sp.nodes) > 1 {
		return []string{"scaling"}
	}
	return []string{"predictor", "speculation"}
}

// jobsPerCall is the number of simulations one study call runs.
func (sp spec) jobsPerCall(study string) int {
	apps := len(specdsm.AppNames())
	switch study {
	case "speculation":
		return 3 * apps
	case "scaling":
		return apps * len(sp.nodes)
	}
	return apps
}

// workerCount is how many jobs run at once.
func (sp spec) workerCount() int {
	switch {
	case sp.shards > 0:
		return sp.shards
	case sp.workers > 0:
		return sp.workers
	}
	return runtime.NumCPU()
}

// cell is one generated input.
type cell struct {
	app string
	p   specdsm.WorkloadParams
}

// cells lists every input one pass uses, with the exact parameters the
// study jobs request, so that generating them here fills the cache
// entries the jobs read.
func (sp spec) cells(seed int64) []cell {
	var out []cell
	for s := seed; s < seed+int64(sp.seeds); s++ {
		for _, app := range specdsm.AppNames() {
			for _, n := range sp.nodes {
				out = append(out, cell{app, specdsm.WorkloadParams{Nodes: n, Scale: sp.scale, Seed: s}})
			}
		}
	}
	return out
}

// env is what set-up leaves for the timed phases.
type env struct {
	sp     spec
	seed   int64
	ckRoot string   // checkpoint directory (small-ckpt-1w)
	addrs  []string // shard addresses (remote-2shard)
	stop   []func() // stops the shards
	ledger *ledger

	genMS   float64 // wall time of the cold AppWorkload calls
	ops     int     // operations across the generated inputs
	largest cell    // the input with the most operations
}

// setUp prepares a workload: the checkpoint directory, the loopback
// shards, every input cell generated on a cold cache, and the study
// configs' shared fields. It is everything between workload start and
// the first job submission.
func setUp(sp spec, seed int64, spans *spanLog) (*env, error) {
	e := &env{sp: sp, seed: seed, ledger: newLedger()}
	if sp.checkpoint {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(outDir, "ckpt-")
		if err != nil {
			return nil, err
		}
		e.ckRoot = dir
	}
	for k := 0; k < sp.shards; k++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, fmt.Errorf("starting shard: %w", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		srv := &remote.Server{NewRunner: e.ledger.runner}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(ctx, lis)
		}()
		e.addrs = append(e.addrs, lis.Addr().String())
		e.stop = append(e.stop, func() { cancel(); <-done })
	}
	bestOps := -1
	for _, c := range sp.cells(seed) {
		start := time.Now()
		w, err := specdsm.AppWorkload(c.app, c.p)
		end := time.Now()
		if err != nil {
			e.close()
			return nil, err
		}
		spans.add("AppWorkload "+c.app, start, end, -1, -1)
		e.genMS += float64(end.Sub(start).Nanoseconds()) / 1e6
		e.ops += w.Ops()
		if w.Ops() > bestOps {
			bestOps, e.largest = w.Ops(), c
		}
	}
	return e, nil
}

// close stops the shards and removes the checkpoints.
func (e *env) close() {
	for _, stop := range e.stop {
		stop()
	}
	e.stop = nil
	if e.ckRoot != "" {
		os.RemoveAll(e.ckRoot)
	}
}

// config builds the StudyConfig of one study call.
func (e *env) config(seed int64, ckName string) specdsm.StudyConfig {
	cfg := specdsm.StudyConfig{
		Nodes:     e.sp.nodes[0],
		Scale:     e.sp.scale,
		Seed:      seed,
		Parallel:  e.sp.workers,
		KeepGoing: true,
	}
	if e.sp.checkpoint {
		cfg.CheckpointPath = filepath.Join(e.ckRoot, ckName)
		cfg.CheckpointEvery = 1
	}
	if len(e.addrs) > 0 {
		cfg.Remote = e.addrs
		cfg.RemoteLogf = e.ledger.logf
	}
	return cfg
}

// ledger is the shard side's account of the jobs it ran. A job the
// dispatcher settled without a shard ran in-process on its fallback
// path; the benchmark counts every such job as failed, because a broken
// remote path would otherwise pass for a healthy one.
type ledger struct {
	mu         sync.Mutex
	served     map[[32]byte]map[int]bool // per study spec, job indices shards completed
	busy       time.Duration             // job time measured on the shards
	reconnects atomic.Int64
}

func newLedger() *ledger { return &ledger{served: map[[32]byte]map[int]bool{}} }

// runner is the shards' remote.Server.NewRunner: specdsm.NewRemoteRunner
// with every completed job recorded.
func (l *ledger) runner(studySpec []byte) (remote.Runner, error) {
	r, err := specdsm.NewRemoteRunner(studySpec)
	if err != nil {
		return nil, err
	}
	key := sha256.Sum256(studySpec)
	return remote.RunnerFunc(func(ctx context.Context, i int) ([]byte, error) {
		start := time.Now()
		out, err := r.Run(ctx, i)
		if err == nil {
			d := time.Since(start)
			l.mu.Lock()
			if l.served[key] == nil {
				l.served[key] = map[int]bool{}
			}
			l.served[key][i] = true
			l.busy += d
			l.mu.Unlock()
		}
		return out, err
	}), nil
}

// logf counts the dispatcher's reconnect attempts.
func (l *ledger) logf(format string, args ...any) {
	if strings.Contains(fmt.Sprintf(format, args...), "(reconnect ") {
		l.reconnects.Add(1)
	}
}

// startCall forgets the previous call's jobs.
func (l *ledger) startCall() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.served)
}

// servedJobs returns how many distinct jobs of the call shards
// completed. Each call ships its own spec (study and seed differ from
// the previous call's), so a straggler of the previous call lands under
// another key and the call's own key holds the most jobs.
func (l *ledger) servedJobs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, jobs := range l.served {
		n = max(n, len(jobs))
	}
	return n
}

// shardBusy returns the job time measured on the shards so far.
func (l *ledger) shardBusy() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.busy
}
