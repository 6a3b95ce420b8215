package machine

import (
	"strconv"
	"strings"
	"sync"

	"specdsm/internal/sim"
)

// pool holds the process's idle machines, keyed by configuration shape
// (Config.poolKey). A machine is in the pool only between runs: Run
// takes it out for the duration of one run, so no two goroutines ever
// share a machine. Like the workload generation cache, the idle set is
// dropped whole when a put would exceed poolCap.
var pool = struct {
	sync.Mutex
	idle   map[string][]*Machine
	n      int // idle machines across all keys
	builds int // machines built by Run; read by tests
	hits   int // runs served by an idle machine; read by tests
}{idle: make(map[string][]*Machine)}

// poolCap bounds the idle set. A study touches a handful of
// configurations per worker; past the cap the set is dropped and
// rebuilt on demand, keeping retained memory bounded without LRU
// bookkeeping.
const poolCap = 32

// Run executes one program per node on an idle pooled machine for cfg,
// or on a newly built one when none is idle, and gives the machine back
// to the pool if the run succeeds. A reused machine is Reset first;
// network timing is not part of a machine's identity, so configurations
// differing only in NetCfg share machines, reconfigured in place per run
// (ReconfigureNetwork). A machine whose run errors or panics is dropped.
// Results are identical to New(cfg).Run(programs), and Run is safe for
// concurrent use.
func Run(cfg Config, programs []Program) (*Result, error) {
	cfg = cfg.withDefaults()
	key := cfg.poolKey()
	var m *Machine
	pool.Lock()
	if ms := pool.idle[key]; len(ms) > 0 {
		m, pool.idle[key] = ms[len(ms)-1], ms[:len(ms)-1]
		pool.n--
		pool.hits++
	} else {
		pool.builds++
	}
	pool.Unlock()
	if m == nil {
		m = New(cfg)
	} else {
		m.Reset()
	}
	if m.cfg.NetCfg != cfg.NetCfg {
		m.ReconfigureNetwork(cfg.NetCfg)
	}
	res, err := m.Run(programs)
	if err != nil {
		return nil, err
	}
	pool.Lock()
	defer pool.Unlock()
	if pool.n >= poolCap {
		clear(pool.idle)
		pool.n = 0
	}
	pool.idle[key] = append(pool.idle[key], m)
	pool.n++
	return res, nil
}

// poolKey serializes every machine-identity Config field into a
// comparable string (Config itself holds a slice and a pointer, so it
// cannot be a map key directly). NetCfg is deliberately omitted: network
// timing is mutable on a built machine (ReconfigureNetwork), so configs
// differing only there share pooled machines. Call on a config that
// already has defaults applied, so equivalent zero-value and explicit
// configs share one key.
func (c Config) poolKey() string {
	var b strings.Builder
	b.Grow(96)
	w := func(v uint64) {
		b.WriteString(strconv.FormatUint(v, 10))
		b.WriteByte(',')
	}
	w(uint64(c.Nodes))
	for _, cy := range [...]sim.Cycle{
		c.Timing.HitLatency, c.Timing.LocalMem, c.Timing.BusOverhead,
		c.Timing.FillOverhead, c.Timing.DirOccupancy, c.Timing.MemAccess,
		c.Timing.CacheAccess, c.Timing.LocalHop,
		c.BarrierExit, c.LockTransfer,
	} {
		w(uint64(cy))
	}
	w(c.MaxEvents)
	w(uint64(c.CacheCapacity))
	var flags uint64
	if c.EnableFR {
		flags |= 1
	}
	if c.EnableSWI {
		flags |= 2
	}
	if c.EnableSpecUpgrade {
		flags |= 4
	}
	if c.DisableCoherenceCheck {
		flags |= 8
	}
	w(flags)
	spec := func(s PredictorSpec) {
		w(uint64(s.Kind))
		w(uint64(s.Depth))
		w(uint64(s.Confidence))
	}
	for _, s := range c.Observers {
		b.WriteByte('o')
		spec(s)
	}
	if c.Active != nil {
		b.WriteByte('a')
		spec(*c.Active)
	}
	return b.String()
}

// PoolStats reports how many machines Run has built and how many runs
// an idle pooled machine served, over the life of the process.
func PoolStats() (builds, hits int) {
	pool.Lock()
	defer pool.Unlock()
	return pool.builds, pool.hits
}
