package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/network"
	"specdsm/internal/sim"
)

// testProgs generates a deterministic synthetic workload exercising
// every machine surface a pooled machine's Reset must re-arm: remote reads and writes
// (producer/consumer and migratory blocks), compute delays, barriers,
// and a contended lock.
func testProgs(shape string, nodes int, seed int64) []Program {
	rng := rand.New(rand.NewSource(seed))
	progs := make([]Program, nodes)
	shared := make([]mem.BlockAddr, 2*nodes)
	for i := range shared {
		shared[i] = mem.MakeAddr(mem.NodeID(i%nodes), uint64(i/nodes))
	}
	iters := 4
	for it := 0; it < iters; it++ {
		for n := 0; n < nodes; n++ {
			blk := shared[(n+it)%len(shared)]
			switch shape {
			case "pc": // producer writes, two consumers read
				progs[n] = append(progs[n], Write(blk), Compute(sim.Cycle(10+rng.Intn(20))))
				progs[n] = append(progs[n], Read(shared[(n+it+1)%len(shared)]))
			case "mig": // read-then-write migration chain with a lock
				progs[n] = append(progs[n], Lock(0), Read(blk), Write(blk), Unlock(0))
				progs[n] = append(progs[n], Compute(sim.Cycle(5+rng.Intn(10))))
			}
		}
		for n := range progs {
			progs[n] = append(progs[n], Barrier())
		}
	}
	return progs
}

func testCfg(mode string) Config {
	cfg := Config{Nodes: 4}
	switch mode {
	case "base":
	case "swi":
		cfg.EnableFR = true
		cfg.EnableSWI = true
		cfg.Active = &PredictorSpec{Kind: core.KindVMSP, Depth: 1}
		cfg.Observers = []PredictorSpec{{Kind: core.KindMSP, Depth: 2}}
	}
	return cfg
}

// emptyPool drops every idle machine and zeroes the build and hit
// counters, so a test can count exactly what its own runs did.
func emptyPool() {
	pool.Lock()
	defer pool.Unlock()
	clear(pool.idle)
	pool.n, pool.builds, pool.hits = 0, 0, 0
}

// poolCounts reads the pool's build and hit counters and idle count.
func poolCounts() (builds, hits, idle int) {
	pool.Lock()
	defer pool.Unlock()
	return pool.builds, pool.hits, pool.n
}

// TestArenaResetEquivalence is the pool's central contract: a machine
// reused through Run produces results deep-equal to a freshly built
// machine for every job, across two workload shapes, two seeds, and two
// machine configurations — interleaved so every reuse follows a
// different (workload, config) than the one that warmed the machine.
func TestArenaResetEquivalence(t *testing.T) {
	emptyPool()
	for _, seed := range []int64{11, 23} {
		for _, shape := range []string{"pc", "mig"} {
			for _, mode := range []string{"base", "swi"} {
				progs := testProgs(shape, 4, seed)
				fresh, err := New(testCfg(mode)).Run(progs)
				if err != nil {
					t.Fatalf("%s/%s/seed%d fresh: %v", shape, mode, seed, err)
				}
				reused, err := Run(testCfg(mode), progs)
				if err != nil {
					t.Fatalf("%s/%s/seed%d pooled: %v", shape, mode, seed, err)
				}
				if !reflect.DeepEqual(fresh, reused) {
					t.Errorf("%s/%s/seed%d: pooled result diverged from fresh build\nfresh:  %+v\nreused: %+v",
						shape, mode, seed, fresh, reused)
				}
			}
		}
	}
	if builds, hits, _ := poolCounts(); builds != 2 || hits != 6 {
		t.Errorf("pool built %d machines and served %d reuses, want 2 (one per distinct config) and 6", builds, hits)
	}
}

// TestArenaRepeatedReuseStable replays the same job many times through
// one pooled machine: any state leaking across runs would drift the
// result.
func TestArenaRepeatedReuseStable(t *testing.T) {
	progs := testProgs("pc", 4, 7)
	first, err := Run(testCfg("swi"), progs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Run(testCfg("swi"), progs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("reuse %d drifted:\nfirst: %+v\nagain: %+v", i, first, again)
		}
	}
}

// TestArenaReconfiguresNetwork pins the latency-sweep folding: configs
// that differ only in network timing share one pooled machine, which is
// reconfigured in place per run and still produces results deep-equal to
// a machine freshly built with that NetCfg — including when the sweep
// revisits an earlier latency.
func TestArenaReconfiguresNetwork(t *testing.T) {
	emptyPool()
	progs := testProgs("pc", 4, 7)
	for _, flight := range []sim.Cycle{20, 80, 320, 20} {
		cfg := testCfg("swi")
		cfg.NetCfg = network.Config{FlightLatency: flight, SendOccupancy: 20, RecvOccupancy: 20}
		fresh, err := New(cfg).Run(progs)
		if err != nil {
			t.Fatalf("flight %d fresh: %v", flight, err)
		}
		reused, err := Run(cfg, progs)
		if err != nil {
			t.Fatalf("flight %d pooled: %v", flight, err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("flight %d: reconfigured pooled machine diverged from fresh build\nfresh:  %+v\nreused: %+v",
				flight, fresh, reused)
		}
	}
	if builds, _, _ := poolCounts(); builds != 1 {
		t.Errorf("pool built %d machines, want 1 (NetCfg must not split the key)", builds)
	}
}

// TestPoolConcurrentRunsGetDistinctMachines runs one configuration from
// several goroutines at once. Under -race, two runs sharing a machine
// would be reported; every result must still equal a fresh build, and
// the pool must build no more machines than there are goroutines and
// hold every machine it built once the runs are done.
func TestPoolConcurrentRunsGetDistinctMachines(t *testing.T) {
	emptyPool()
	cfg := testCfg("swi")
	progs := testProgs("mig", 4, 5)
	want, err := New(cfg).Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, runs = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*runs)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				got, err := Run(cfg, progs)
				if err == nil && !reflect.DeepEqual(got, want) {
					err = fmt.Errorf("concurrent pooled run diverged from fresh build")
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	builds, hits, idle := poolCounts()
	if builds < 1 || builds > goroutines || builds+hits != goroutines*runs || idle != builds {
		t.Errorf("pool built %d, reused %d, holds %d idle after %d runs on %d goroutines",
			builds, hits, idle, goroutines*runs, goroutines)
	}

}

// TestPoolDropsFailedRuns: a run that trips the event guard, or panics,
// does not give its machine back, so the next run of that configuration
// builds a new one.
func TestPoolDropsFailedRuns(t *testing.T) {
	emptyPool()
	cfg := testCfg("swi")
	probe, err := New(cfg).Run(testProgs("pc", 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxEvents = 2 * probe.Events
	if _, err := Run(cfg, mixProgs(4, 200, 3)); err == nil {
		t.Fatal("long run did not trip the event guard")
	}
	if builds, _, idle := poolCounts(); builds != 1 || idle != 0 {
		t.Errorf("after a failed run: %d built, %d idle; want 1 built and none idle", builds, idle)
	}

	panicky := make([]Program, 4)
	panicky[0] = Program{Unlock(0)}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unlocking a free lock did not panic")
			}
		}()
		Run(cfg, panicky)
	}()
	if builds, _, idle := poolCounts(); builds != 2 || idle != 0 {
		t.Errorf("after a panicking run: %d built, %d idle; want 2 built and none idle", builds, idle)
	}
}

// TestPoolBoundDropsIdleSet: putting back one machine more than poolCap
// drops the whole idle set first, so a configuration that was idle
// before the overflow is built again.
func TestPoolBoundDropsIdleSet(t *testing.T) {
	emptyPool()
	progs := testProgs("pc", 2, 3)
	cfgAt := func(i int) Config { return Config{Nodes: 2, MaxEvents: uint64(1_000_000 + i)} }
	for i := 0; i < poolCap; i++ {
		if _, err := Run(cfgAt(i), progs); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, idle := poolCounts(); idle != poolCap {
		t.Fatalf("%d idle machines after %d distinct runs, want %d", idle, poolCap, poolCap)
	}
	if _, err := Run(cfgAt(poolCap), progs); err != nil {
		t.Fatal(err)
	}
	if _, _, idle := poolCounts(); idle != 1 {
		t.Fatalf("%d idle machines after overflowing the bound, want 1", idle)
	}
	if _, err := Run(cfgAt(0), progs); err != nil {
		t.Fatal(err)
	}
	if builds, hits, _ := poolCounts(); builds != poolCap+2 || hits != 0 {
		t.Errorf("pool built %d and reused %d, want %d and 0", builds, hits, poolCap+2)
	}
}

// TestFixedLatenciesFitNearWheel asserts the model's fixed scheduling
// delays — node timing, default and RTL-sweep network configs, barrier
// and lock hand-off — all land on the kernel's O(1) near wheel. If a new
// latency outgrows sim.WheelSpan the simulator stays correct (the
// overflow heap absorbs it) but the hot path silently slows; this guard
// makes that a conscious decision.
func TestFixedLatenciesFitNearWheel(t *testing.T) {
	cfg := Config{}.withDefaults()
	lat := map[string]sim.Cycle{
		"HitLatency":   cfg.Timing.HitLatency,
		"LocalMem":     cfg.Timing.LocalMem,
		"BusOverhead":  cfg.Timing.BusOverhead,
		"FillOverhead": cfg.Timing.FillOverhead,
		"DirOccupancy": cfg.Timing.DirOccupancy,
		"MemAccess":    cfg.Timing.MemAccess,
		"CacheAccess":  cfg.Timing.CacheAccess,
		"LocalHop":     cfg.Timing.LocalHop,
		"BarrierExit":  cfg.BarrierExit,
		"LockTransfer": cfg.LockTransfer,
		"MinLatency":   cfg.NetCfg.SendOccupancy + cfg.NetCfg.FlightLatency + cfg.NetCfg.RecvOccupancy,
		"RTLFlightMax": 320 + cfg.NetCfg.SendOccupancy + cfg.NetCfg.RecvOccupancy,
	}
	for name, c := range lat {
		if c >= sim.WheelSpan {
			t.Errorf("%s = %d cycles does not fit the near wheel (WheelSpan %d)", name, c, sim.WheelSpan)
		}
	}
}

// TestMachineRearmZeroAllocs guards the re-arm path: once a machine has
// run, Reset re-arms it for the next workload without touching the heap
// (tables, queues, dense slices, observation logs, and pools are all
// retained).
func TestMachineRearmZeroAllocs(t *testing.T) {
	cfg := testCfg("swi")
	cfg.Observers = nineObservers()
	m := New(cfg)
	progs := testProgs("pc", 4, 7)
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		m.Reset()
	})
	if avg != 0 {
		t.Errorf("Machine.Reset allocates %.2f/op, want 0", avg)
	}
	// The machine must still be runnable (and correct) after the guard's
	// resets.
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
}

// TestObserverLogRunAllocs guards the observation log on a pooled machine:
// the allocations nine observers add to a warm Base run (the result's
// per-spec maps) are the same whether each directory's log fills at most
// once or half a dozen times, so feeding the observers allocates nothing
// per record or per replay. With Reset allocation-free
// (TestMachineRearmZeroAllocs), the log adds no allocations after the
// machine's first run.
func TestObserverLogRunAllocs(t *testing.T) {
	extra := func(iters int) float64 {
		progs := mixProgs(4, iters, 5)
		runAllocs := func(cfg Config) float64 {
			if _, err := Run(cfg, progs); err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := Run(cfg, progs); err != nil {
					t.Fatal(err)
				}
			})
		}
		return runAllocs(Config{Nodes: 4, Observers: nineObservers()}) - runAllocs(Config{Nodes: 4})
	}
	short, long := extra(60), extra(500)
	if short != long {
		t.Errorf("nine observers add %.1f allocs to a short warm run but %.1f to a long one", short, long)
	}
}
