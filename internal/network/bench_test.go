package network

import (
	"testing"

	"specdsm/internal/mem"
	"specdsm/internal/sim"
)

// benchMsg stands in for the protocol's message payload: a value type,
// so carrying it allocates nothing.
type benchMsg struct {
	addr, version uint64
}

// sendDeliver returns a function that sends one message between two of
// n nodes, rotating the pair, and runs the kernel until it is delivered:
// one Send, its arrival event and its delivery event.
func sendDeliver(n int) func() {
	k := sim.NewKernel()
	nw := New[benchMsg](k, n, DefaultConfig())
	delivered := 0
	for i := 0; i < n; i++ {
		nw.SetHandler(mem.NodeID(i), func(mem.NodeID, benchMsg) { delivered++ })
	}
	i := 0
	return func() {
		src := mem.NodeID(i % n)
		nw.Send(src, mem.NodeID((i+1)%n), benchMsg{addr: uint64(i)})
		k.Run(0)
		i++
	}
}

// BenchmarkNetworkSendDeliver times the interconnect layer alone: one
// message from Send through the sender NI, flight and receiver NI to
// its handler.
func BenchmarkNetworkSendDeliver(b *testing.B) {
	step := sendDeliver(16)
	step() // put a carrier in the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestSendDeliverAllocs pins BenchmarkNetworkSendDeliver's allocation
// count: carriers come from the network's pool, so a warm send and
// delivery allocate nothing.
func TestSendDeliverAllocs(t *testing.T) {
	step := sendDeliver(16)
	step()
	if got := testing.AllocsPerRun(1000, step); got > 0 {
		t.Errorf("warm send+deliver allocates %.2f times, pinned at 0", got)
	}
}
