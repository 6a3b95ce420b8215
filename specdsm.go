package specdsm

import (
	"fmt"

	"specdsm/internal/core"
	"specdsm/internal/machine"
	"specdsm/internal/network"
	"specdsm/internal/sim"
	"specdsm/internal/workload"
)

// Mode selects the DSM flavor of §7.4.
type Mode string

const (
	// ModeBase is the conventional DSM with no speculation.
	ModeBase Mode = "base"
	// ModeFR triggers read-sequence speculation on the first read only.
	ModeFR Mode = "fr"
	// ModeSWI uses Speculative Write-Invalidation plus First-Read.
	ModeSWI Mode = "swi"
)

// PredictorKind names a predictor variant.
type PredictorKind string

const (
	// Cosmos is the general message predictor baseline (Mukherjee & Hill).
	Cosmos PredictorKind = "Cosmos"
	// MSP is the request-only Memory Sharing Predictor.
	MSP PredictorKind = "MSP"
	// VMSP is the Vector MSP.
	VMSP PredictorKind = "VMSP"
)

// Kinds lists the predictor variants in the paper's comparison order.
func Kinds() []PredictorKind { return []PredictorKind{Cosmos, MSP, VMSP} }

// MaxDepth is the largest supported predictor history depth (the paper
// evaluates depths 1, 2, and 4). Every API that takes a depth accepts
// the range [1, MaxDepth]; tools can validate against it up front
// instead of discovering the limit mid-run.
const MaxDepth = core.MaxDepth

func (k PredictorKind) kind() (core.Kind, error) {
	switch k {
	case Cosmos:
		return core.KindCosmos, nil
	case MSP:
		return core.KindMSP, nil
	case VMSP:
		return core.KindVMSP, nil
	default:
		return 0, fmt.Errorf("specdsm: unknown predictor kind %q", k)
	}
}

// PredictorConfig selects a predictor variant and history depth.
// Confidence > 0 enables an extension beyond the paper: speculation only
// acts on pattern entries whose 2-bit confidence counter has reached the
// threshold (accuracy measurement is unaffected).
type PredictorConfig struct {
	Kind       PredictorKind
	Depth      int
	Confidence int
}

// WorkloadParams sizes a workload instantiation. Zero values select the
// defaults: 16 nodes, per-application iteration counts, scale 1.0, seed 1.
type WorkloadParams struct {
	Nodes      int
	Iterations int
	Scale      float64
	Seed       int64
}

// MaxIterations caps WorkloadParams.Iterations and StudyConfig.Iterations,
// far above the paper's largest count (Table 2: 60), so that a mistyped
// count is refused instead of generating an enormous program.
const MaxIterations = 1000

// Workload is a generated multi-node program, ready to run. The program
// slices may be shared with other Workload values for the same
// (application, parameters) — generation is served from a process-wide
// cache — and are immutable: simulation only reads them, so one Workload
// can back any number of concurrent runs.
type Workload struct {
	Name     string
	Nodes    int
	programs []machine.Program
}

// Ops returns the total operation count across all per-node programs.
func (w Workload) Ops() int {
	n := 0
	for _, p := range w.programs {
		n += len(p)
	}
	return n
}

// AppNames returns the seven benchmark names (Table 2).
func AppNames() []string { return workload.Names() }

// AppInfo describes one benchmark for reporting.
type AppInfo struct {
	Name            string
	Description     string
	PaperInput      string
	PaperIterations int
}

// AppInfos returns Table 2 metadata for all benchmarks.
func AppInfos() []AppInfo {
	var out []AppInfo
	for _, a := range workload.Apps() {
		out = append(out, AppInfo{a.Name, a.Description, a.PaperInput, a.PaperIterations})
	}
	return out
}

// AppWorkload instantiates one of the seven paper benchmarks. Zero
// parameters select the defaults (16 nodes, the application's iteration
// count, scale 1, seed 1); a machine size outside [2, mem.MaxNodes], an
// iteration count outside [0, MaxIterations], or a non-finite or negative
// scale is refused.
func AppWorkload(name string, p WorkloadParams) (Workload, error) {
	app, ok := workload.ByName(name)
	if !ok {
		return Workload{}, fmt.Errorf("specdsm: unknown application %q (have %v)", name, AppNames())
	}
	wp := workload.Params{
		Nodes:      p.Nodes,
		Iterations: p.Iterations,
		Scale:      p.Scale,
		Seed:       p.Seed,
	}
	if wp.Nodes == 0 {
		wp.Nodes = 16
	}
	if err := validNodes(wp.Nodes); err != nil {
		return Workload{}, err
	}
	if err := validIterations(wp.Iterations); err != nil {
		return Workload{}, err
	}
	if wp.Scale != 0 { // 0 selects the generator's default scale
		if err := validScale(wp.Scale); err != nil {
			return Workload{}, err
		}
	}
	return Workload{Name: name, Nodes: wp.Nodes, programs: workload.Programs(app, wp)}, nil
}

// MicroPattern names a synthetic micro-workload for examples and tests.
type MicroPattern string

const (
	// PatternProducerConsumer is the paper's running example (Figures 2-4).
	PatternProducerConsumer MicroPattern = "producer-consumer"
	// PatternMigratory is read+write ownership migration along a chain.
	PatternMigratory MicroPattern = "migratory"
	// PatternStencil is near-neighbour boundary sharing.
	PatternStencil MicroPattern = "stencil"
)

// MicroWorkload instantiates a micro-pattern.
func MicroWorkload(pattern MicroPattern, p WorkloadParams) (Workload, error) {
	mp := workload.MicroParams{
		Nodes:      p.Nodes,
		Iterations: p.Iterations,
		Seed:       p.Seed,
	}
	if mp.Nodes == 0 {
		mp.Nodes = 4
	}
	var progs []machine.Program
	switch pattern {
	case PatternProducerConsumer:
		progs = workload.ProducerConsumer(mp)
	case PatternMigratory:
		progs = workload.MigratoryPattern(mp)
	case PatternStencil:
		progs = workload.StencilPattern(mp)
	default:
		return Workload{}, fmt.Errorf("specdsm: unknown micro pattern %q", pattern)
	}
	return Workload{Name: string(pattern), Nodes: mp.Nodes, programs: progs}, nil
}

// MachineOptions configures the simulated DSM for one run.
type MachineOptions struct {
	// Mode selects Base-DSM, FR-DSM, or SWI-DSM. Empty means Base.
	Mode Mode
	// Observers attach passive predictors at every directory.
	Observers []PredictorConfig
	// Active overrides the speculation predictor (default: VMSP depth 1,
	// as in the paper's §7.4).
	Active *PredictorConfig
	// SpecUpgrades enables the migratory-sharing extension.
	SpecUpgrades bool
	// DisableChecks turns off the coherence checker (benchmarks).
	DisableChecks bool
	// NetworkFlight overrides the interconnect flight latency in cycles
	// (default 80, Table 1). Raising it raises the remote-to-local ratio:
	// the empirical analogue of Figure 6's rtl panel (NUMA-Q vs Mercury vs
	// Origin).
	NetworkFlight int
	// CacheCapacity bounds valid cache lines per node with LRU eviction
	// (0 = unbounded, the paper's §6 "remote cache large enough"
	// assumption). Lowering it reintroduces the capacity/conflict traffic
	// the paper deliberately excludes.
	CacheCapacity int
}

// PredictorResult reports one predictor's measurements over a run.
type PredictorResult struct {
	Kind            PredictorKind
	Depth           int
	Tracked         uint64
	Predicted       uint64
	Correct         uint64
	Accuracy        float64 // Correct/Predicted   (Figures 7-8)
	Coverage        float64 // Predicted/Tracked   (Table 3)
	CorrectFraction float64 // Correct/Tracked     (Table 3, parenthesized)
	Blocks          int
	Entries         int
	EntriesPerBlock float64 // Table 4 "pte"
	BytesPerBlock   float64 // Table 4 "ovh" (depth-1 formulas)
}

// RunResult aggregates one simulation run.
type RunResult struct {
	Workload string
	Mode     Mode
	Nodes    int
	// Time, in processor cycles.
	Cycles            int64
	ComputeCycles     int64
	SyncCycles        int64
	RequestWaitCycles int64
	// Requests observed at the directories.
	Reads    uint64
	Writes   uint64
	Upgrades uint64
	// Speculation activity.
	SpecHits            uint64
	SpecReadsFR         uint64
	SpecReadsSWI        uint64
	SpecReadUnused      uint64
	UnreferencedSpec    uint64
	SpecDropped         uint64
	SWIRecalls          uint64
	SWIPremature        uint64
	SpecUpgrades        uint64
	SpecUpgradeMisfires uint64
	// Finite-cache mode.
	Evictions          uint64
	EvictionWritebacks uint64
	// NetMsgs counts interconnect messages sent (the traffic metric of
	// the node-scaling study).
	NetMsgs uint64
	// Predictor measurements (observers, then active last if present).
	Predictors []PredictorResult
	Events     uint64
}

// WriteLike returns writes plus upgrades.
func (r *RunResult) WriteLike() uint64 { return r.Writes + r.Upgrades }

// RequestShare is the fraction of aggregate processor time spent waiting
// on coherence transactions.
func (r *RunResult) RequestShare() float64 {
	total := r.ComputeCycles + r.SyncCycles + r.RequestWaitCycles
	if total == 0 {
		return 0
	}
	return float64(r.RequestWaitCycles) / float64(total)
}

// MaxObservers caps MachineOptions.Observers. A pooled machine keeps
// every predictor table it was built with, so the cap bounds what one
// options value — a remote study spec's included — can make a process
// retain.
const MaxObservers = 64

// validate refuses options no machine is built from: more than
// MaxObservers observers, a negative cache capacity or flight latency,
// an unknown mode or predictor kind, a depth outside [1, core.MaxDepth],
// or SpecUpgrades without an active predictor. buildConfig and the
// remote spec check share it, so a shard refuses a bad sweep spec at
// the handshake with the error each local job would report.
func (o MachineOptions) validate() error {
	if o.CacheCapacity < 0 {
		return fmt.Errorf("specdsm: negative cache capacity %d", o.CacheCapacity)
	}
	if o.NetworkFlight < 0 {
		return fmt.Errorf("specdsm: negative network flight latency %d", o.NetworkFlight)
	}
	if len(o.Observers) > MaxObservers {
		return fmt.Errorf("specdsm: %d observers, above the cap of %d", len(o.Observers), MaxObservers)
	}
	for _, p := range o.Observers {
		if err := p.check("observer"); err != nil {
			return err
		}
	}
	switch o.Mode {
	case "", ModeBase:
		if o.SpecUpgrades {
			return fmt.Errorf("specdsm: SpecUpgrades requires an active predictor mode")
		}
	case ModeFR, ModeSWI:
		if o.Active != nil {
			return o.Active.check("active")
		}
	default:
		return fmt.Errorf("specdsm: unknown mode %q", o.Mode)
	}
	return nil
}

// check refuses an unknown kind or a depth outside [1, core.MaxDepth];
// role names the predictor in the error.
func (c PredictorConfig) check(role string) error {
	if _, err := c.Kind.kind(); err != nil {
		return err
	}
	if c.Depth < 1 || c.Depth > core.MaxDepth {
		return fmt.Errorf("specdsm: %s depth %d out of range [1,%d]", role, c.Depth, core.MaxDepth)
	}
	return nil
}

// spec is c as a machine predictor spec; call on a checked config.
func (c PredictorConfig) spec() machine.PredictorSpec {
	k, _ := c.Kind.kind()
	return machine.PredictorSpec{Kind: k, Depth: c.Depth, Confidence: c.Confidence}
}

// buildConfig translates public options into a machine configuration.
func buildConfig(w Workload, opts MachineOptions) (machine.Config, Mode, error) {
	if err := opts.validate(); err != nil {
		return machine.Config{}, "", err
	}
	cfg := machine.Config{
		Nodes:                 w.Nodes,
		DisableCoherenceCheck: opts.DisableChecks,
		EnableSpecUpgrade:     opts.SpecUpgrades,
		CacheCapacity:         opts.CacheCapacity,
	}
	if opts.NetworkFlight != 0 {
		nc := network.DefaultConfig()
		nc.FlightLatency = sim.Cycle(opts.NetworkFlight)
		cfg.NetCfg = nc
	}
	for _, o := range opts.Observers {
		cfg.Observers = append(cfg.Observers, o.spec())
	}
	mode := opts.Mode
	if mode == "" {
		mode = ModeBase
	}
	if mode != ModeBase {
		cfg.EnableFR = true
		cfg.EnableSWI = mode == ModeSWI
		active := PredictorConfig{Kind: VMSP, Depth: 1}
		if opts.Active != nil {
			active = *opts.Active
		}
		spec := active.spec()
		cfg.Active = &spec
	}
	return cfg, mode, nil
}

// Run simulates the workload on a machine configured by opts. The
// machine comes from a process-wide pool: it is built on the first run
// of its configuration and re-armed in place for later ones, so studies
// pay construction once per distinct configuration. Results are
// identical to a freshly built machine's (the reset-equivalence tests
// pin this), and Run is safe for concurrent use.
func Run(w Workload, opts MachineOptions) (*RunResult, error) {
	if len(w.programs) == 0 {
		return nil, fmt.Errorf("specdsm: empty workload")
	}
	cfg, mode, err := buildConfig(w, opts)
	if err != nil {
		return nil, err
	}
	res, err := machine.Run(cfg, w.programs)
	if err != nil {
		return nil, fmt.Errorf("specdsm: %s/%s: %w", w.Name, mode, err)
	}
	return convert(w, mode, cfg, res), nil
}

func convert(w Workload, mode Mode, cfg machine.Config, res *machine.Result) *RunResult {
	out := &RunResult{
		Workload:            w.Name,
		Mode:                mode,
		Nodes:               w.Nodes,
		Cycles:              int64(res.Cycles),
		ComputeCycles:       int64(res.TotalCompute),
		SyncCycles:          int64(res.TotalSync),
		RequestWaitCycles:   int64(res.TotalReqWait),
		Reads:               res.Dir.Reads,
		Writes:              res.Dir.Writes,
		Upgrades:            res.Dir.Upgrades,
		SpecHits:            res.Cache.SpecHits,
		SpecReadsFR:         res.Dir.SpecReadsFR,
		SpecReadsSWI:        res.Dir.SpecReadsSWI,
		SpecReadUnused:      res.Dir.SpecReadUnused,
		UnreferencedSpec:    res.UnreferencedSpec,
		SpecDropped:         res.Cache.SpecDropped,
		SWIRecalls:          res.Dir.SWIRecalls,
		SWIPremature:        res.Dir.SWIPremature,
		SpecUpgrades:        res.Dir.SpecUpgrades,
		SpecUpgradeMisfires: res.Dir.SpecUpgradeMisfires,
		Evictions:           res.Cache.Evictions,
		EvictionWritebacks:  res.Cache.EvictionWritebacks,
		NetMsgs:             res.Network.Sent,
		Events:              res.Events,
	}
	for _, spec := range cfg.Observers {
		st := res.PredStats[spec]
		cs := res.PredCensus[spec]
		out.Predictors = append(out.Predictors, predictorResult(spec, st, cs))
	}
	if cfg.Active != nil {
		out.Predictors = append(out.Predictors,
			predictorResult(*cfg.Active, res.ActiveStats, res.ActiveCensus))
	}
	return out
}

func predictorResult(spec machine.PredictorSpec, st core.Stats, cs core.Census) PredictorResult {
	var kind PredictorKind
	switch spec.Kind {
	case core.KindCosmos:
		kind = Cosmos
	case core.KindMSP:
		kind = MSP
	case core.KindVMSP:
		kind = VMSP
	}
	return PredictorResult{
		Kind:            kind,
		Depth:           spec.Depth,
		Tracked:         st.Tracked,
		Predicted:       st.Predicted,
		Correct:         st.Correct,
		Accuracy:        st.Accuracy(),
		Coverage:        st.Coverage(),
		CorrectFraction: st.CorrectFraction(),
		Blocks:          cs.Blocks,
		Entries:         cs.Entries,
		EntriesPerBlock: cs.EntriesPerBlock(),
		BytesPerBlock:   core.BytesPerBlock(spec.Kind, cs.EntriesPerBlock()),
	}
}

// Predictor returns the result for one attached predictor configuration.
func (r *RunResult) Predictor(kind PredictorKind, depth int) (PredictorResult, bool) {
	for _, p := range r.Predictors {
		if p.Kind == kind && p.Depth == depth {
			return p, true
		}
	}
	return PredictorResult{}, false
}
