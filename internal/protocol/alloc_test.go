package protocol

import (
	"testing"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/network"
	"specdsm/internal/sim"
)

// allocHarness drives a system without the testing.T plumbing of harness
// so the measured closures stay allocation-free themselves: the done
// callback is bound once and every access drains the kernel.
type allocHarness struct {
	k    *sim.Kernel
	sys  *System
	noop func(AccessOutcome)
}

func newAllocHarness(n int, opts ...Options) *allocHarness {
	k := sim.NewKernel()
	return &allocHarness{
		k:    k,
		sys:  NewSystem(k, n, DefaultTiming(), network.DefaultConfig(), opts),
		noop: func(AccessOutcome) {},
	}
}

func (h *allocHarness) access(node mem.NodeID, isWrite bool, addr mem.BlockAddr) {
	h.sys.Node(node).Access(isWrite, addr, h.noop)
	h.k.Run(0)
}

// serveCycle exercises every steady-state directory serve path against
// one block homed at node 0: a read recalling an exclusive owner, a plain
// shared-grant read, an upgrade invalidating the other sharer (inval +
// ack + upgrade-ack), and a write recalling the new owner (writeback +
// exclusive grant).
func (h *allocHarness) serveCycle(addr mem.BlockAddr) {
	h.access(1, false, addr)
	h.access(2, false, addr)
	h.access(1, true, addr)
	h.access(2, true, addr)
}

// TestDirectoryServeSteadyStateZeroAllocs guards the tentpole contract of
// the pooled-transaction / inline-entry directory: once the working set
// is warm (entries created, free lists primed, queues at capacity), a
// full recall/inval/upgrade/writeback serve cycle allocates nothing.
func TestDirectoryServeSteadyStateZeroAllocs(t *testing.T) {
	h := newAllocHarness(3)
	addr := mem.MakeAddr(0, 1)
	for i := 0; i < 50; i++ {
		h.serveCycle(addr)
	}
	avg := testing.AllocsPerRun(100, func() {
		h.serveCycle(addr)
	})
	if avg != 0 {
		t.Errorf("steady-state serve cycle allocates %.2f/run, want 0", avg)
	}
	if err := h.sys.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	if v := h.sys.Violations(); len(v) != 0 {
		t.Fatalf("coherence violations: %v", v)
	}
}

// TestCacheHitZeroAllocs guards the most frequent operation in the whole
// simulator: a processor cache hit (read on a shared line, store on an
// exclusive line) completes through the pooled done-event path without
// allocating.
func TestCacheHitZeroAllocs(t *testing.T) {
	h := newAllocHarness(2)
	rd := mem.MakeAddr(1, 1) // remote shared line, read hits
	wr := mem.MakeAddr(1, 2) // remote exclusive line, store hits
	h.access(0, false, rd)
	h.access(0, true, wr)
	for i := 0; i < 20; i++ {
		h.access(0, false, rd)
		h.access(0, true, wr)
	}
	avg := testing.AllocsPerRun(100, func() {
		h.access(0, false, rd)
		h.access(0, true, wr)
	})
	if avg != 0 {
		t.Errorf("cache hits allocate %.2f/run, want 0", avg)
	}
	if err := h.sys.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolSteadyStateZeroAllocsManyBlocks repeats the serve guard
// over a working set large enough to have grown the dense entry slices
// and the BlockMap through several rehashes, proving the growth path
// leaves no steady-state residue.
func TestProtocolSteadyStateZeroAllocsManyBlocks(t *testing.T) {
	h := newAllocHarness(3)
	addrs := make([]mem.BlockAddr, 200)
	for i := range addrs {
		addrs[i] = mem.MakeAddr(mem.NodeID(i%3), uint64(i))
	}
	warm := func() {
		for _, a := range addrs {
			h.access(1, true, a)
			h.access(2, false, a)
		}
	}
	warm()
	warm()
	avg := testing.AllocsPerRun(10, warm)
	if avg != 0 {
		t.Errorf("steady-state sweep over %d blocks allocates %.2f/run, want 0", len(addrs), avg)
	}
}

// wideInvalReaders are 32 readers spread over the extension groups of a
// 256-node machine (nodes 65..251).
var wideInvalReaders = func() []mem.NodeID {
	var out []mem.NodeID
	for i := 0; i < 32; i++ {
		out = append(out, mem.NodeID(65+6*i))
	}
	return out
}()

// wideInvalAddr is the block wideInvalCycle shares, homed at node 0.
var wideInvalAddr = mem.MakeAddr(0, 7)

// newWideInvalHarness builds the 256-node FR system of
// BenchmarkInvalidateWide and warms it until the predictor forwards the
// whole reader set.
func newWideInvalHarness() *allocHarness {
	h := newAllocHarness(256, Options{Active: core.NewSized(core.KindVMSP, 1, 256), EnableFR: true})
	for i := 0; i < 10; i++ {
		h.wideInvalCycle()
	}
	return h
}

// wideInvalCycle runs one read phase by every wide reader and one write
// by node 1 that invalidates them all.
func (h *allocHarness) wideInvalCycle() {
	for _, r := range wideInvalReaders {
		h.access(r, false, wideInvalAddr)
	}
	h.access(1, true, wideInvalAddr)
}

// wideInvalCycleAllocs is the pinned allocation count of one
// wideInvalCycle: one sharer-set extension, sized to the groups in use,
// per phase-level set operation — the recalled reader's sharer set, the
// predictor's open run gaining it, the forward's target set, and its
// union into the sharers and into the open run. Cloning per target in the invalidation or
// forwarding loops, or per ack, would add about 32 allocations per cycle
// each (the loops that did so cost 132 in all).
const wideInvalCycleAllocs = 5

// TestInvalidateWideAllocs guards the wide sharer-set path: a warm
// invalidation fan-out plus FR forwarding cycle stays at its pinned
// allocation count, and the cycle really forwards to and invalidates the
// whole reader set.
func TestInvalidateWideAllocs(t *testing.T) {
	h := newWideInvalHarness()
	before := h.sys.Node(0).DirStats()
	avg := testing.AllocsPerRun(20, h.wideInvalCycle)
	after := h.sys.Node(0).DirStats()
	runs := uint64(21) // AllocsPerRun adds one warm-up run
	n := uint64(len(wideInvalReaders))
	if got := (after.InvalsSent - before.InvalsSent) / runs; got != n {
		t.Errorf("invalidations per cycle = %d, want %d", got, n)
	}
	if got := (after.SpecReadsFR - before.SpecReadsFR) / runs; got != n-1 {
		t.Errorf("FR forwards per cycle = %d, want %d", got, n-1)
	}
	if avg != wideInvalCycleAllocs {
		t.Errorf("wide invalidation cycle allocates %.2f/run, want %d", avg, wideInvalCycleAllocs)
	}
	if err := h.sys.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	if v := h.sys.Violations(); len(v) != 0 {
		t.Fatalf("coherence violations: %v", v)
	}
}
