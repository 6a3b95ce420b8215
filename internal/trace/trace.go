package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/sim"
)

// Event is one directory-incoming coherence message.
type Event struct {
	// Cycle is the directory processing time.
	Cycle int64 `json:"c"`
	// Addr encodes the block (home node in the top bits, see mem.MakeAddr).
	Addr uint64 `json:"a"`
	// Type is the message type (core.MsgType numeric value).
	Type uint8 `json:"t"`
	// Node is the message source.
	Node uint16 `json:"n"`
}

// Trace is a captured run.
type Trace struct {
	Workload string  `json:"workload"`
	Nodes    int     `json:"nodes"`
	Seed     int64   `json:"seed"`
	Events   []Event `json:"events"`
}

// Blocks returns the number of distinct blocks in the trace.
func (t *Trace) Blocks() int {
	seen := make(map[uint64]struct{})
	for _, e := range t.Events {
		seen[e.Addr] = struct{}{}
	}
	return len(seen)
}

// Recorder captures the machine-wide directory message stream. Its Record
// method is a protocol.TraceFunc: installed with System.SetTrace, it is
// called online for every directory-incoming message, in machine-wide
// processing order, with the message's processing cycle.
type Recorder struct {
	trace Trace
}

// NewRecorder creates a recorder for the given run metadata.
func NewRecorder(workload string, nodes int, seed int64) *Recorder {
	return &Recorder{trace: Trace{Workload: workload, Nodes: nodes, Seed: seed}}
}

// Trace returns the captured trace (shared, not copied).
func (r *Recorder) Trace() *Trace { return &r.trace }

// Record appends one message to the trace.
func (r *Recorder) Record(cycle sim.Cycle, addr mem.BlockAddr, t core.MsgType, node mem.NodeID) {
	r.trace.Events = append(r.trace.Events, Event{
		Cycle: int64(cycle),
		Addr:  uint64(addr),
		Type:  uint8(t),
		Node:  uint16(node),
	})
}

// Reset discards the captured events, keeping the metadata.
func (r *Recorder) Reset() { r.trace.Events = nil }

// Replay feeds the trace's events, in captured order, to each predictor
// in turn — every event through the first predictor, then every event
// through the next, so one predictor's tables stay cache-hot for the
// whole trace — and returns nothing; inspect the predictors' Stats/Census
// afterwards. Captured order preserves per-block arrival order, which is
// all the (per-block) two-level predictors depend on. Block ids are
// assigned once, in first-seen order, through one mem.BlockMap shared by
// every predictor, so an event costs one address hash rather than one
// per predictor.
func Replay(t *Trace, predictors ...core.Predictor) {
	if len(predictors) == 0 {
		return
	}
	var ids mem.BlockMap
	blocks := make([]core.BlockID, len(t.Events))
	for i, e := range t.Events {
		id, _ := ids.Reserve(mem.BlockAddr(e.Addr), int32(ids.Len()))
		blocks[i] = core.BlockID(id)
	}
	for _, p := range predictors {
		for i, e := range t.Events {
			p.Observe(blocks[i], core.Observation{Type: core.MsgType(e.Type), Node: mem.NodeID(e.Node)})
		}
	}
}

// fileHeader guards the serialization format.
const formatVersion = 1

type fileEnvelope struct {
	Format  int    `json:"format"`
	Version int    `json:"version"`
	Trace   *Trace `json:"trace"`
}

// Write serializes the trace as JSON.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(fileEnvelope{Format: formatVersion, Version: formatVersion, Trace: t}); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	var env fileEnvelope
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if env.Format != formatVersion {
		return nil, fmt.Errorf("trace: unsupported format %d", env.Format)
	}
	if env.Trace == nil {
		return nil, fmt.Errorf("trace: empty envelope")
	}
	return env.Trace, nil
}
