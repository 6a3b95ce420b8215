package protocol

import (
	"testing"

	"specdsm/internal/mem"
)

// BenchmarkDirectoryServe measures one full steady-state serve cycle
// (read recall, shared grant, upgrade invalidation, write recall) against
// a warm directory entry — the protocol-side hot path of every study.
// The alloc guard in alloc_test.go pins this at 0 allocs/op.
func BenchmarkDirectoryServe(b *testing.B) {
	h := newAllocHarness(3)
	addr := mem.MakeAddr(0, 1)
	for i := 0; i < 10; i++ {
		h.serveCycle(addr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.serveCycle(addr)
	}
}

// BenchmarkCacheHit measures one read hit plus one store hit, completion
// callback included — the most frequent operation in the simulator.
func BenchmarkCacheHit(b *testing.B) {
	h := newAllocHarness(2)
	rd := mem.MakeAddr(1, 1)
	wr := mem.MakeAddr(1, 2)
	for i := 0; i < 20; i++ {
		h.access(0, false, rd)
		h.access(0, true, wr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.access(0, false, rd)
		h.access(0, true, wr)
	}
}

// BenchmarkInvalidateWide measures the wide-machine sharer-set path: on a
// 256-node system with a VMSP predictor and First-Read forwarding, one
// cycle is 32 reads of a block by nodes above the inline tier (the first
// recalls the writer's copy and forwards speculative copies to the other
// 31) and one write by node 1 that invalidates all 32 sharers. The guard
// in alloc_test.go pins its allocs/op.
func BenchmarkInvalidateWide(b *testing.B) {
	h := newWideInvalHarness()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.wideInvalCycle()
	}
}
