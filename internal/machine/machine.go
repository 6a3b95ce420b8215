package machine

import (
	"errors"
	"fmt"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/network"
	"specdsm/internal/protocol"
	"specdsm/internal/sim"
)

// OpKind enumerates program operations.
type OpKind uint8

const (
	// OpRead loads one coherence block.
	OpRead OpKind = iota
	// OpWrite stores to one coherence block.
	OpWrite
	// OpCompute advances the processor's clock without memory traffic.
	OpCompute
	// OpBarrier blocks until every processor reaches the same barrier op.
	OpBarrier
	// OpLock acquires a global queue lock (FIFO).
	OpLock
	// OpUnlock releases a lock held by this processor.
	OpUnlock
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCompute:
		return "compute"
	case OpBarrier:
		return "barrier"
	case OpLock:
		return "lock"
	case OpUnlock:
		return "unlock"
	default:
		return "?"
	}
}

// Op is one program operation.
type Op struct {
	Kind   OpKind
	Addr   mem.BlockAddr // OpRead/OpWrite
	Cycles sim.Cycle     // OpCompute
	ID     int           // OpLock/OpUnlock lock identifier
}

// Read returns a load op.
func Read(addr mem.BlockAddr) Op { return Op{Kind: OpRead, Addr: addr} }

// Write returns a store op.
func Write(addr mem.BlockAddr) Op { return Op{Kind: OpWrite, Addr: addr} }

// Compute returns a compute-delay op.
func Compute(cycles sim.Cycle) Op { return Op{Kind: OpCompute, Cycles: cycles} }

// Barrier returns a global barrier op.
func Barrier() Op { return Op{Kind: OpBarrier} }

// Lock returns a lock-acquire op.
func Lock(id int) Op { return Op{Kind: OpLock, ID: id} }

// Unlock returns a lock-release op.
func Unlock(id int) Op { return Op{Kind: OpUnlock, ID: id} }

// Program is the op sequence executed by one processor.
type Program []Op

// PredictorSpec names a predictor variant to instantiate per node.
// Confidence > 0 gates the speculation surfaces on 2-bit per-entry
// confidence counters (an extension; 0 is the paper's behaviour).
type PredictorSpec struct {
	Kind       core.Kind
	Depth      int
	Confidence int
}

func (s PredictorSpec) String() string {
	if s.Confidence > 0 {
		return fmt.Sprintf("%v(d=%d,conf=%d)", s.Kind, s.Depth, s.Confidence)
	}
	return fmt.Sprintf("%v(d=%d)", s.Kind, s.Depth)
}

// build instantiates the predictor for a machine of the given node count
// (wide machines need vector-interning predictors; see core.NewSized).
func (s PredictorSpec) build(nodes int) *core.TwoLevel {
	p := core.NewSized(s.Kind, s.Depth, nodes)
	p.SetConfidenceThreshold(s.Confidence)
	return p
}

// Config describes one machine instantiation.
type Config struct {
	// Nodes is the machine size; the paper simulates 16.
	Nodes int
	// Timing and NetCfg default to Table 1 values when zero.
	Timing protocol.Timing
	NetCfg network.Config
	// Observers are passive predictor variants instantiated at every
	// node's directory; their stats are summed machine-wide.
	Observers []PredictorSpec
	// Active enables speculation with this predictor variant (the paper
	// uses VMSP depth 1).
	Active *PredictorSpec
	// EnableFR / EnableSWI select the speculative DSM flavor: FR-DSM sets
	// only EnableFR; SWI-DSM sets both (§7.4).
	EnableFR  bool
	EnableSWI bool
	// EnableSpecUpgrade turns on the migratory extension.
	EnableSpecUpgrade bool
	// CacheCapacity bounds valid cache lines per node (0 = unbounded,
	// the paper's assumption).
	CacheCapacity int
	// DisableCoherenceCheck turns the version checker off (benches).
	DisableCoherenceCheck bool
	// BarrierExit is the release latency after the last arrival.
	BarrierExit sim.Cycle
	// LockTransfer is the hand-off latency for the abstract queue lock.
	LockTransfer sim.Cycle
	// MaxEvents guards against runaway simulations (0 = default guard).
	MaxEvents uint64
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 16
	}
	if c.Timing == (protocol.Timing{}) {
		c.Timing = protocol.DefaultTiming()
	}
	if c.NetCfg == (network.Config{}) {
		c.NetCfg = network.DefaultConfig()
	}
	if c.BarrierExit == 0 {
		c.BarrierExit = 140 // one network traversal + dispatch
	}
	if c.LockTransfer == 0 {
		c.LockTransfer = 300 // remote lock hand-off
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 2_000_000_000
	}
	return c
}

// ProcStats is the per-processor time breakdown. Figure 9 reports two
// buckets: computation (Compute+Sync) and remote-request waiting (ReqWait).
type ProcStats struct {
	Compute  sim.Cycle // compute ops, cache hits, local memory accesses
	Sync     sim.Cycle // barrier and lock waiting
	ReqWait  sim.Cycle // coherence-transaction waiting
	Finish   sim.Cycle
	Accesses uint64
	Hits     uint64
	SpecHits uint64
	Locals   uint64
	Remotes  uint64
}

// Busy is the Figure 9 "computation" bucket.
func (p ProcStats) Busy() sim.Cycle { return p.Compute + p.Sync }

// Result aggregates one run.
type Result struct {
	// Cycles is the makespan (last processor finish time).
	Cycles sim.Cycle
	Procs  []ProcStats
	// Summed time buckets across processors.
	TotalCompute sim.Cycle
	TotalSync    sim.Cycle
	TotalReqWait sim.Cycle
	// Machine-wide protocol counters.
	Dir   protocol.DirStats
	Cache protocol.CacheStats
	// Predictor measurements, summed across nodes, keyed by spec.
	PredStats  map[PredictorSpec]core.Stats
	PredCensus map[PredictorSpec]core.Census
	// Active-predictor measurements when speculation is on.
	ActiveStats  core.Stats
	ActiveCensus core.Census
	// UnreferencedSpec counts speculative lines never referenced by the
	// end of the run (misspeculations not yet caught by invalidation).
	UnreferencedSpec uint64
	Network          network.Stats
	Events           uint64
}

// RequestShare is the fraction of aggregate processor time spent waiting
// on coherence transactions (the dark bar segment of Figure 9).
func (r *Result) RequestShare() float64 {
	total := r.TotalCompute + r.TotalSync + r.TotalReqWait
	if total == 0 {
		return 0
	}
	return float64(r.TotalReqWait) / float64(total)
}

// Machine is one ready-to-run simulated CC-NUMA.
type Machine struct {
	cfg       Config
	kernel    *sim.Kernel
	sys       *protocol.System
	observers [][]core.Predictor // [node][spec index]
	actives   []core.Predictor   // [node], nil entries when inactive
	procs     []*proc
	barriers  map[int]*barrier
	locks     map[int]*lock
	running   int
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	k := sim.NewKernel()
	m := &Machine{
		cfg:      cfg,
		kernel:   k,
		barriers: make(map[int]*barrier),
		locks:    make(map[int]*lock),
	}
	opts := make([]protocol.Options, cfg.Nodes)
	m.observers = make([][]core.Predictor, cfg.Nodes)
	m.actives = make([]core.Predictor, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		var obs []core.Predictor
		for _, spec := range cfg.Observers {
			obs = append(obs, spec.build(cfg.Nodes))
		}
		m.observers[i] = obs
		var active core.Predictor
		if cfg.Active != nil {
			active = cfg.Active.build(cfg.Nodes)
			m.actives[i] = active
		}
		opts[i] = protocol.Options{
			Observers:         obs,
			Active:            active,
			EnableFR:          cfg.EnableFR,
			EnableSWI:         cfg.EnableSWI,
			EnableSpecUpgrade: cfg.EnableSpecUpgrade,
			CacheCapacity:     cfg.CacheCapacity,
		}
	}
	m.sys = protocol.NewSystem(k, cfg.Nodes, cfg.Timing, cfg.NetCfg, opts)
	if cfg.DisableCoherenceCheck {
		m.sys.SetCoherenceChecking(false)
	}
	return m
}

// System exposes the underlying protocol system (its trace hook, tests,
// examples).
func (m *Machine) System() *protocol.System { return m.sys }

// Reset re-arms a machine that has completed a run so it can Run again:
// the kernel clock, network, protocol system, predictors, barriers, and
// locks all return to their just-constructed state while retaining their
// storage (tables, dense slices, queues, event pools). A reset machine
// is observably equivalent to a freshly built one with the same Config —
// the contract pinned by the reset-equivalence tests — which is what
// lets the machine pool (Run) replay many workloads through one machine
// without paying construction again. Call only after Run has returned.
func (m *Machine) Reset() {
	m.kernel.Reset()
	m.sys.Reset()
	for _, obs := range m.observers {
		for _, p := range obs {
			p.Reset()
		}
	}
	for _, a := range m.actives {
		if a != nil {
			a.Reset()
		}
	}
	for _, b := range m.barriers {
		b.waiters = b.waiters[:0]
	}
	for _, l := range m.locks {
		l.held = false
		l.owner = 0
		l.queue = l.queue[:0]
	}
	m.running = 0
}

// ReconfigureNetwork swaps the machine's interconnect timing in place, so
// the machine pool can replay one built machine across sweep points that
// differ only in network configuration (the RTL sweep's flight-latency
// axis). Call between runs, next to Reset; the machine then behaves
// exactly like one freshly built with the new NetCfg.
func (m *Machine) ReconfigureNetwork(cfg network.Config) {
	m.cfg.NetCfg = cfg
	m.sys.ReconfigureNetwork(cfg)
}

// Run executes one program per node to completion and returns the
// aggregated result. It errors if programs deadlock (unbalanced barriers,
// abandoned locks) or the event guard trips. Run may be called again on
// the same machine after Reset; processors are then re-armed in place
// rather than rebuilt.
func (m *Machine) Run(programs []Program) (*Result, error) {
	if len(programs) != m.cfg.Nodes {
		return nil, fmt.Errorf("machine: %d programs for %d nodes", len(programs), m.cfg.Nodes)
	}
	if m.procs == nil {
		m.procs = make([]*proc, m.cfg.Nodes)
		for i := range m.procs {
			m.procs[i] = newProc(m, mem.NodeID(i), nil)
		}
	}
	for i := range programs {
		p := m.procs[i]
		p.rearm(programs[i])
		m.running++
		m.kernel.At(0, p.stepFn)
	}
	executed := m.kernel.Run(m.cfg.MaxEvents)
	if executed >= m.cfg.MaxEvents {
		return nil, fmt.Errorf("machine: event guard tripped at %d events", executed)
	}
	for _, p := range m.procs {
		if !p.finished {
			return nil, fmt.Errorf("machine: processor %d deadlocked at pc=%d (%v)",
				p.id, p.pc, opAt(p.prog, p.pc))
		}
	}
	if v := m.sys.Violations(); len(v) != 0 {
		return nil, fmt.Errorf("machine: coherence violations: %v", v)
	}
	if err := m.sys.CheckQuiescent(); err != nil {
		return nil, err
	}
	if !m.cfg.DisableCoherenceCheck {
		if err := m.sys.AuditConsistency(); err != nil {
			return nil, err
		}
	}
	m.sys.FlushObservations()
	return m.collect(executed), nil
}

func opAt(prog Program, pc int) any {
	if pc-1 >= 0 && pc-1 < len(prog) {
		return prog[pc-1]
	}
	return "end"
}

func (m *Machine) collect(events uint64) *Result {
	r := &Result{
		PredStats:  make(map[PredictorSpec]core.Stats),
		PredCensus: make(map[PredictorSpec]core.Census),
		Network:    m.sys.NetworkStats(),
		Events:     events,
	}
	for _, p := range m.procs {
		ps := ProcStats{
			Compute:  p.compute,
			Sync:     p.sync,
			ReqWait:  p.reqWait,
			Finish:   p.finishTime,
			Accesses: p.accesses,
			Hits:     p.hits,
			SpecHits: p.specHits,
			Locals:   p.locals,
			Remotes:  p.remotes,
		}
		r.Procs = append(r.Procs, ps)
		r.TotalCompute += p.compute
		r.TotalSync += p.sync
		r.TotalReqWait += p.reqWait
		if p.finishTime > r.Cycles {
			r.Cycles = p.finishTime
		}
	}
	for i := 0; i < m.cfg.Nodes; i++ {
		node := m.sys.Node(mem.NodeID(i))
		addDirStats(&r.Dir, node.DirStats())
		addCacheStats(&r.Cache, node.CacheStats())
		r.UnreferencedSpec += node.SweepUnreferencedSpec()
		for j, spec := range m.cfg.Observers {
			p := m.observers[i][j]
			r.PredStats[spec] = addStats(r.PredStats[spec], p.Stats())
			r.PredCensus[spec] = addCensus(r.PredCensus[spec], p.Census(), spec.Depth)
		}
		if a := m.actives[i]; a != nil {
			r.ActiveStats = addStats(r.ActiveStats, a.Stats())
			r.ActiveCensus = addCensus(r.ActiveCensus, a.Census(), m.cfg.Active.Depth)
		}
	}
	return r
}

func addStats(a, b core.Stats) core.Stats {
	a.Tracked += b.Tracked
	a.Predicted += b.Predicted
	a.Correct += b.Correct
	return a
}

func addCensus(a, b core.Census, depth int) core.Census {
	a.Blocks += b.Blocks
	a.Entries += b.Entries
	a.HistoryDepth = depth
	return a
}

func addDirStats(dst *protocol.DirStats, s protocol.DirStats) {
	dst.Reads += s.Reads
	dst.Writes += s.Writes
	dst.Upgrades += s.Upgrades
	dst.InvalsSent += s.InvalsSent
	dst.RecallsSent += s.RecallsSent
	dst.AcksReceived += s.AcksReceived
	dst.Writebacks += s.Writebacks
	dst.QueuedReqs += s.QueuedReqs
	dst.UpgradeGrants += s.UpgradeGrants
	dst.SpecReadsFR += s.SpecReadsFR
	dst.SpecReadsSWI += s.SpecReadsSWI
	dst.SpecReadUnused += s.SpecReadUnused
	dst.SWIRecalls += s.SWIRecalls
	dst.SWIPremature += s.SWIPremature
	dst.SpecUpgrades += s.SpecUpgrades
	dst.SpecUpgradeMisfires += s.SpecUpgradeMisfires
}

func addCacheStats(dst *protocol.CacheStats, s protocol.CacheStats) {
	dst.Hits += s.Hits
	dst.SpecHits += s.SpecHits
	dst.LocalAccesses += s.LocalAccesses
	dst.ProtocolReads += s.ProtocolReads
	dst.ProtocolWrites += s.ProtocolWrites
	dst.InvalsReceived += s.InvalsReceived
	dst.RecallsReceived += s.RecallsReceived
	dst.SpecInstalled += s.SpecInstalled
	dst.SpecDropped += s.SpecDropped
	dst.SpecReferenced += s.SpecReferenced
	dst.Evictions += s.Evictions
	dst.EvictionWritebacks += s.EvictionWritebacks
	dst.SpecDeclinedFull += s.SpecDeclinedFull
}

// ErrDeadlock reports a workload that cannot make progress.
var ErrDeadlock = errors.New("machine: deadlock")
