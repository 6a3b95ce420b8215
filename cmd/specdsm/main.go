// Command specdsm runs one or more workloads on a single DSM
// configuration and prints each run's measurements:
//
//	specdsm -app em3d -mode swi
//	specdsm -app unstructured -mode fr -scale 0.5 -seed 3
//	specdsm -app em3d,moldyn,ocean -mode swi -parallel 4
//	specdsm -pattern producer-consumer -mode swi -nodes 4
//	specdsm -app moldyn -mode swi -predictor MSP -depth 2
//	specdsm -app moldyn -mode swi -spec-upgrades
//	specdsm -app em3d,moldyn,ocean -checkpoint run.ck -resume
//	specdsm -app em3d,moldyn,ocean -keep-going
//	specdsm -app em3d,moldyn,ocean -remote 127.0.0.1:7701,127.0.0.1:7702
//
// With a comma-separated -app list the simulations fan out across a
// -parallel-wide worker pool; reports stream out in the order the apps
// were named, independent of completion order. App sweeps get the full
// sweep machinery paperrepro has: -checkpoint/-resume/-resume-salvage
// persist and continue interrupted runs, -keep-going prints fatally
// failed simulations as FAILED blocks instead of aborting, and -remote
// fans the sweep out to sweepd shard workers — in every case the report
// stream stays byte-identical to a plain -parallel 1 run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"specdsm"
	"specdsm/internal/sweep"
)

func main() {
	spec, err := parseRun(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if spec.List {
		for _, a := range specdsm.AppInfos() {
			fmt.Printf("%-13s %s\n", a.Name, a.Description)
		}
		return
	}
	err = run(spec, os.Stdout)
	var km *sweep.KeyMismatchError
	if errors.As(err, &km) {
		// Same wrong-invocation diagnosis as paperrepro: the checkpoint
		// is intact but belongs to a different sweep configuration.
		fmt.Fprintf(os.Stderr, "specdsm: checkpoint %s was recorded under different sweep parameters:\n", km.Path)
		for _, line := range km.Diff() {
			fmt.Fprintf(os.Stderr, "  %s\n", line)
		}
		fmt.Fprintf(os.Stderr, "fix: rerun with the flags listed above, or remove %s to start this configuration fresh\n", km.Path)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(spec runSpec, out io.Writer) error {
	workloads, err := spec.workloads()
	if err != nil {
		return err
	}

	if spec.TraceOut != "" {
		f, err := os.Create(spec.TraceOut)
		if err != nil {
			return err
		}
		r, sum, err := specdsm.CaptureTrace(workloads[0], spec.Opts, f)
		cerr := f.Close()
		if err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trace               %s (%d events, %d blocks)\n", spec.TraceOut, sum.Events, sum.Blocks)
		return writeReport(out, r, workloads[0].Ops(), spec.Opts)
	}

	if spec.Pattern != "" {
		// Micro-patterns are a single direct run; the sweep machinery
		// below is app-sweep-only (parseRun enforces that).
		p := sweep.New(spec.Parallel)
		p.Retries = spec.Retries
		p.RetrySeed = uint64(spec.WP.Seed)
		p.Inject = spec.Inject
		return sweep.Run(context.Background(), p, sweep.Job[struct{}, *specdsm.RunResult]{
			N: len(workloads),
			Fn: func(_ context.Context, _ struct{}, i int) (*specdsm.RunResult, error) {
				return specdsm.Run(workloads[i], spec.Opts)
			},
			Emit: func(i int, r *specdsm.RunResult) error {
				return writeReport(out, r, workloads[i].Ops(), spec.Opts)
			},
		})
	}

	// App sweeps run through the library's study engine, which layers
	// checkpoint/resume, keep-going, and remote shard dispatch over the
	// worker pool. The engine merges results in index order, so the
	// report stream is byte-identical to the old direct path — and to
	// itself at any -parallel value or -remote fleet size.
	cfg := specdsm.StudyConfig{
		Apps:            spec.Apps,
		Nodes:           spec.WP.Nodes,
		Iterations:      spec.WP.Iterations,
		Scale:           spec.WP.Scale,
		Seed:            spec.WP.Seed,
		Parallel:        spec.Parallel,
		Retries:         spec.Retries,
		FaultSpec:       spec.FaultSpec,
		KeepGoing:       spec.KeepGoing,
		CheckpointPath:  spec.Checkpoint,
		Resume:          spec.Resume,
		Salvage:         spec.Salvage,
		CheckpointEvery: spec.CheckpointEvery,
		Remote:          spec.Remote,
	}
	if spec.Salvage {
		cfg.OnSalvage = func(study string, rep sweep.SalvageReport) {
			fmt.Fprintf(os.Stderr, "specdsm: checkpoint %s.%s: salvaged %d rows, dropped %d bytes (%s)\n",
				spec.Checkpoint, study, rep.Rows, rep.DroppedBytes, rep.Reason)
		}
	}
	var fail sweep.FailFunc
	if spec.KeepGoing {
		fail = func(i int, ferr error) error {
			if i > 0 {
				fmt.Fprintln(out)
			}
			_, werr := fmt.Fprintf(out, "workload            %s\nFAILED              %v\n", spec.Apps[i], ferr)
			return werr
		}
	}
	return specdsm.RunSweepStream(cfg, spec.Opts,
		func(i int, r *specdsm.RunResult) error {
			if i > 0 {
				fmt.Fprintln(out)
			}
			return writeReport(out, r, workloads[i].Ops(), spec.Opts)
		}, fail)
}

// writeReport prints one run's measurement block. The block is staged
// in a builder so out sees a single write whose error (e.g. a broken
// pipe mid-sweep) aborts the remaining reports instead of vanishing.
func writeReport(out io.Writer, r *specdsm.RunResult, ops int, opts specdsm.MachineOptions) error {
	var b strings.Builder
	fmt.Fprintf(&b, "workload            %s (%d nodes, %d ops)\n", r.Workload, r.Nodes, ops)
	fmt.Fprintf(&b, "mode                %s\n", r.Mode)
	fmt.Fprintf(&b, "execution time      %d cycles\n", r.Cycles)
	fmt.Fprintf(&b, "compute cycles      %d\n", r.ComputeCycles)
	fmt.Fprintf(&b, "sync cycles         %d\n", r.SyncCycles)
	fmt.Fprintf(&b, "request wait cycles %d (%.1f%% of processor time)\n",
		r.RequestWaitCycles, r.RequestShare()*100)
	fmt.Fprintf(&b, "requests            %d reads, %d writes, %d upgrades\n",
		r.Reads, r.Writes, r.Upgrades)
	if r.Mode != specdsm.ModeBase {
		fmt.Fprintf(&b, "speculative reads   %d via FR, %d via SWI (%d hits, %d verified misses, %d dropped)\n",
			r.SpecReadsFR, r.SpecReadsSWI, r.SpecHits, r.SpecReadUnused, r.SpecDropped)
		fmt.Fprintf(&b, "SWI                 %d recalls, %d premature\n", r.SWIRecalls, r.SWIPremature)
	}
	if opts.CacheCapacity > 0 {
		fmt.Fprintf(&b, "cache               %d lines/node, %d evictions (%d writebacks)\n",
			opts.CacheCapacity, r.Evictions, r.EvictionWritebacks)
		if opts.SpecUpgrades {
			fmt.Fprintf(&b, "spec upgrades       %d granted, %d misfires\n", r.SpecUpgrades, r.SpecUpgradeMisfires)
		}
	}
	for _, p := range r.Predictors {
		fmt.Fprintf(&b, "predictor %-7s d=%d  accuracy %5.1f%%  coverage %5.1f%%  pte %.1f\n",
			p.Kind, p.Depth, p.Accuracy*100, p.Coverage*100, p.EntriesPerBlock)
	}
	_, err := io.WriteString(out, b.String())
	return err
}
