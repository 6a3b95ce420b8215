package specdsm

import (
	"fmt"
	"io"

	"specdsm/internal/core"
	"specdsm/internal/machine"
	"specdsm/internal/mem"
	"specdsm/internal/trace"
)

// TraceSummary describes a captured coherence-message trace.
type TraceSummary struct {
	Workload string
	Nodes    int
	Seed     int64
	Events   int
	Blocks   int
}

// CaptureTrace runs the workload and writes the coherence message streams
// observed at the directories to w as JSON, returning the run result and
// a trace summary. The events come from the directories' online trace
// hook, in machine-wide processing order, each stamped with its
// processing cycle. Every block's events are in the order that block's
// home directory logged them for its passive observers, so offline
// evaluation (EvaluateTrace) reproduces online predictor measurements
// bit-for-bit.
func CaptureTrace(wl Workload, opts MachineOptions, out io.Writer) (*RunResult, TraceSummary, error) {
	if len(wl.programs) == 0 {
		return nil, TraceSummary{}, fmt.Errorf("specdsm: empty workload")
	}
	cfg, mode, err := buildConfig(wl, opts)
	if err != nil {
		return nil, TraceSummary{}, err
	}
	m := machine.New(cfg)
	rec := trace.NewRecorder(wl.Name, wl.Nodes, 0)
	m.System().SetTrace(rec.Record)
	res, err := m.Run(wl.programs)
	if err != nil {
		return nil, TraceSummary{}, fmt.Errorf("specdsm: %s/%s: %w", wl.Name, mode, err)
	}
	tr := rec.Trace()
	if err := trace.Write(out, tr); err != nil {
		return nil, TraceSummary{}, err
	}
	return convert(wl, mode, cfg, res), summarize(tr), nil
}

func summarize(tr *trace.Trace) TraceSummary {
	return TraceSummary{
		Workload: tr.Workload,
		Nodes:    tr.Nodes,
		Seed:     tr.Seed,
		Events:   len(tr.Events),
		Blocks:   tr.Blocks(),
	}
}

// EvaluateTrace reads a trace written by CaptureTrace and evaluates the
// given predictor configurations on it offline, without re-simulation.
func EvaluateTrace(in io.Reader, configs []PredictorConfig) ([]PredictorResult, TraceSummary, error) {
	tr, err := trace.Read(in)
	if err != nil {
		return nil, TraceSummary{}, err
	}
	return evaluateTrace(tr, configs)
}

func evaluateTrace(tr *trace.Trace, configs []PredictorConfig) ([]PredictorResult, TraceSummary, error) {
	var preds []core.Predictor
	var specs []machine.PredictorSpec
	for _, c := range configs {
		if err := c.check("predictor"); err != nil {
			return nil, TraceSummary{}, err
		}
		k, _ := c.Kind.kind()
		nodes := tr.Nodes
		if nodes < mem.InlineNodes {
			nodes = mem.InlineNodes
		}
		preds = append(preds, core.NewSized(k, c.Depth, nodes))
		specs = append(specs, machine.PredictorSpec{Kind: k, Depth: c.Depth})
	}
	trace.Replay(tr, preds...)
	var out []PredictorResult
	for i, p := range preds {
		out = append(out, predictorResult(specs[i], p.Stats(), p.Census()))
	}
	return out, summarize(tr), nil
}
