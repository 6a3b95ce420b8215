package specdsm

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"

	"specdsm/internal/fault"
	"specdsm/internal/machine"
	"specdsm/internal/remote"
	"specdsm/internal/sweep"
)

// remoteSpec is the self-contained, gob-able description of one study's
// job space — everything a sweepd worker needs to rebuild the exact job
// function the dispatcher's process would run locally. It carries only
// value data (no callbacks, no checkpoint state): execution-side knobs
// like Parallel, Remote, and the checkpoint fields stay dispatcher-side
// because they cannot change any job's result.
type remoteSpec struct {
	// Study selects the job function: predictor, speculation, seeds,
	// scaling, rtl, or sweep.
	Study string
	// Base is the resume offset: job index j on the wire means absolute
	// study index Base+j. Shipping it keeps the worker's retry/injector
	// schedule keyed on the same relative indices the in-process pool
	// uses after a checkpoint replay, so a resumed remote sweep stays
	// byte-identical to a resumed local one.
	Base int

	Apps          []string
	Nodes         int
	Iterations    int
	Scale         float64
	Seed          int64
	Depths        []int
	DisableChecks bool
	Retries       int
	FaultSpec     string

	// Study-specific axes.
	Seeds      []int64        // seeds
	NodeCounts []int          // scaling
	RTLApp     string         // rtl
	RTLParams  WorkloadParams // rtl
	RTLFlights []int          // rtl
	Opts       MachineOptions // sweep (the CLI's machine configuration)
}

// remoteSpec lifts the config's job-identity scalars into a shippable
// spec for the named study. Call on a config that already has defaults
// applied, so both ends resolve to the same concrete values.
func (c StudyConfig) remoteSpec(study string) remoteSpec {
	return remoteSpec{
		Study:         study,
		Apps:          c.Apps,
		Nodes:         c.Nodes,
		Iterations:    c.Iterations,
		Scale:         c.Scale,
		Seed:          c.Seed,
		Depths:        c.Depths,
		DisableChecks: c.DisableChecks,
		Retries:       c.Retries,
		FaultSpec:     c.FaultSpec,
	}
}

// config is the worker-side inverse of StudyConfig.remoteSpec.
func (rs remoteSpec) config() StudyConfig {
	return StudyConfig{
		Apps:          rs.Apps,
		Nodes:         rs.Nodes,
		Iterations:    rs.Iterations,
		Scale:         rs.Scale,
		Seed:          rs.Seed,
		Depths:        rs.Depths,
		DisableChecks: rs.DisableChecks,
		Retries:       rs.Retries,
		FaultSpec:     rs.FaultSpec,
	}
}

func (rs remoteSpec) encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rs); err != nil {
		return nil, fmt.Errorf("specdsm: encoding study spec: %w", err)
	}
	return buf.Bytes(), nil
}

// NewRemoteRunner builds a shard-side job executor from a dispatcher's
// study spec — the remote.Server.NewRunner for a sweepd worker. The
// returned runner owns one simulation arena (the server builds a runner
// per connection, so the arena needs no locking) and settles each job
// under the same retry budget, fault-injection schedule, and backoff
// the in-process pool would apply, which is what makes a job's outcome
// — row bytes or failure text — independent of where it executes.
//
// An unknown study, an unparsable spec, or one that fails validation
// (the StudyConfig checks, a negative resume offset, an empty or
// non-positive study axis) is a construction error; the server refuses
// the connection with the reason, so the dispatcher abandons this worker
// instead of retrying a spec that cannot get better.
func NewRemoteRunner(spec []byte) (remote.Runner, error) {
	var rs remoteSpec
	if err := gob.NewDecoder(bytes.NewReader(spec)).Decode(&rs); err != nil {
		return nil, fmt.Errorf("specdsm: decoding study spec: %w", err)
	}
	if err := rs.validate(); err != nil {
		return nil, err
	}
	cfg := rs.config()
	switch rs.Study {
	case "predictor":
		return runnerFor(rs, predictorJob(cfg))
	case "speculation":
		return runnerFor(rs, speculationJob(cfg))
	case "seeds":
		return runnerFor(rs, seedsJob(cfg, rs.Seeds))
	case "scaling":
		return runnerFor(rs, scalingJob(cfg, rs.NodeCounts))
	case "rtl":
		w, err := AppWorkload(rs.RTLApp, rs.RTLParams)
		if err != nil {
			return nil, err
		}
		return runnerFor(rs, rtlJob(w, rs.RTLFlights))
	case "sweep":
		return runnerFor(rs, sweepJob(cfg, rs.Opts))
	default:
		return nil, fmt.Errorf("specdsm: unknown remote study %q", rs.Study)
	}
}

// validate refuses a decoded spec no dispatcher would have sent.
func (rs remoteSpec) validate() error {
	if rs.Base < 0 {
		return fmt.Errorf("specdsm: study spec has negative resume offset %d", rs.Base)
	}
	axes := map[string][]int{"scaling": rs.NodeCounts, "rtl": rs.RTLFlights}
	if axis, ok := axes[rs.Study]; ok {
		if len(axis) == 0 {
			return fmt.Errorf("specdsm: %s study spec has an empty axis", rs.Study)
		}
		for _, v := range axis {
			if v <= 0 {
				return fmt.Errorf("specdsm: %s study spec has non-positive axis entry %d", rs.Study, v)
			}
		}
	}
	if rs.Study == "scaling" {
		for _, n := range rs.NodeCounts {
			if err := validNodes(n); err != nil {
				return err
			}
		}
	}
	if rs.Study == "seeds" && len(rs.Seeds) == 0 {
		return fmt.Errorf("specdsm: seeds study spec has no seeds")
	}
	return rs.config().Validate()
}

// runnerFor wraps a study's job function as a remote.Runner: one arena,
// a single-job pool carrying the spec's retry/fault policy, and gob
// encoding of each settled row.
func runnerFor[T any](rs remoteSpec, fn func(context.Context, *machine.Arena, int) (T, error)) (remote.Runner, error) {
	p := sweep.New(1)
	p.Retries = rs.Retries
	p.RetrySeed = uint64(rs.Seed)
	if rs.FaultSpec != "" {
		inj, err := fault.ParseSpec(rs.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("specdsm: %w", err)
		}
		p.Inject = inj
	}
	arena := machine.NewArena()
	base := rs.Base
	return remote.RunnerFunc(func(ctx context.Context, j int) ([]byte, error) {
		v, err := sweep.RunOne(ctx, p, arena, j,
			func(ctx context.Context, a *machine.Arena, j int) (T, error) { return fn(ctx, a, base+j) })
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return nil, fmt.Errorf("specdsm: encoding job %d result: %w", base+j, err)
		}
		return buf.Bytes(), nil
	}), nil
}

// streamStudy is the execution backend every study driver fans out on:
// sweep.Run over the study's checkpoint, with an in-process worker pool
// or — when cfg.Remote names shard workers — the fault-tolerant remote
// dispatcher as its executor. Either way rows and keep-going failures
// reach emit/fail strictly in index order, so a study cannot tell how
// (or where) its jobs ran.
func streamStudy[T any](cfg StudyConfig, rs remoteSpec, n int, extra string,
	fn func(context.Context, *machine.Arena, int) (T, error),
	emit func(int, T) error, fail sweep.FailFunc) error {
	ck, err := cfg.checkpoint(rs.Study, n, extra)
	if err != nil {
		return err
	}
	// Replayed rows are not run again, so the progress ETA counts only
	// the jobs left.
	pool, err := cfg.pool(n - ck.Rows())
	if err != nil {
		return err
	}
	job := sweep.Job[*machine.Arena, T]{
		N: n, NewState: machine.NewArena, Fn: fn,
		Emit: emit, Fail: fail, Checkpoint: ck,
	}
	if len(cfg.Remote) > 0 {
		job.Exec = streamRemote[T](cfg, rs)
	}
	return sweep.Run(context.Background(), pool, job)
}

// streamRemote is streamStudy's dispatcher executor: it ships the spec
// with the resume offset and spreads the remaining relative indices
// across the shard fleet. Job results come back as gob payloads;
// failures come back as error text, which is all the local path
// persists or prints either.
func streamRemote[T any](cfg StudyConfig, rs remoteSpec) sweep.Executor[T] {
	return func(ctx context.Context, p *sweep.Pool, base, n int, emit func(int, T) error, fail sweep.FailFunc) error {
		rs.Base = base
		spec, err := rs.encode()
		if err != nil {
			return err
		}
		// The degradation floor runs the exact worker-side code path —
		// spec decode, per-runner arena, RunOne — so a sweep that falls
		// back to local execution (dead fleet, poison job) is
		// byte-identical to one a shard served.
		local, err := NewRemoteRunner(spec)
		if err != nil {
			return err
		}
		d := &remote.Dispatcher{
			Hosts:     cfg.Remote,
			Spec:      spec,
			Local:     local,
			KeepGoing: cfg.KeepGoing,
			Seed:      uint64(cfg.Seed),
			OnJobDone: p.OnJobDone,
			Inject:    p.Inject,
			Logf:      cfg.RemoteLogf,
		}
		return d.Run(ctx, 0, n, func(j int, r remote.Result) error {
			if r.Err != "" {
				ferr := errors.New(r.Err)
				if fail == nil {
					return ferr
				}
				return fail(j, ferr)
			}
			var v T
			if err := gob.NewDecoder(bytes.NewReader(r.Payload)).Decode(&v); err != nil {
				return fmt.Errorf("specdsm: remote job %d: decoding result: %w", base+j, err)
			}
			return emit(j, v)
		})
	}
}

// RunSweepStream runs every cfg.Apps workload on one machine
// configuration — the study behind the specdsm CLI's multi-app sweep —
// and streams each run's result, in Apps order, to emit. All of cfg's
// execution machinery applies: worker-pool parallelism, checkpointing
// and resume, retry budgets, fault injection, and remote dispatch.
// fail receives fatal job failures in index order when the sweep runs
// keep-going (pass nil to abort on the first failure); unlike the
// figure studies there is no FAILED row shape here, so the caller
// renders failures itself.
func RunSweepStream(cfg StudyConfig, opts MachineOptions, emit func(i int, r *RunResult) error, fail sweep.FailFunc) error {
	cfg = cfg.withDefaults()
	n := len(cfg.Apps)
	rs := cfg.remoteSpec("sweep")
	rs.Opts = opts
	return streamStudy(cfg, rs, n, "|opts="+optsKey(opts), sweepJob(cfg, opts), emit, fail)
}

// sweepJob builds the CLI sweep's job function: application i of
// cfg.Apps simulated once under opts.
func sweepJob(cfg StudyConfig, opts MachineOptions) func(context.Context, *machine.Arena, int) (*RunResult, error) {
	wp := cfg.workloadParams()
	return func(_ context.Context, arena *machine.Arena, i int) (*RunResult, error) {
		w, err := AppWorkload(cfg.Apps[i], wp)
		if err != nil {
			return nil, err
		}
		return runInArena(arena, w, opts)
	}
}

// optsKey renders the machine configuration's job-identity fields for
// the sweep study's checkpoint key. Explicit (rather than %+v) because
// Active is a pointer: the key must describe its value, not its
// address.
func optsKey(o MachineOptions) string {
	active := "-"
	if o.Active != nil {
		active = fmt.Sprintf("%s/%d/%d", o.Active.Kind, o.Active.Depth, o.Active.Confidence)
	}
	return fmt.Sprintf("mode=%s|active=%s|obs=%v|specup=%t|cap=%d|flight=%d",
		o.Mode, active, o.Observers, o.SpecUpgrades, o.CacheCapacity, o.NetworkFlight)
}
