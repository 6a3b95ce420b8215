package core

import (
	"fmt"
	"testing"

	"specdsm/internal/mem"
)

// The predictor study attaches 9 passive observers to every directory.
// Each directory logs its messages and replays the log one observer at a
// time, so an observer's Observe runs in long back-to-back stretches —
// the loop these benchmarks time — and it is the innermost loop of the
// predictor study; the active predictor's Observe runs online on every
// message of the speculation runs. These benchmarks pin its steady-state
// cost — and, via ReportAllocs and TestObserveSteadyStateZeroAllocs,
// that the existing-pattern path does not allocate.

// benchSeq is the producer/consumer iteration of Figures 2-4: one
// upgrade, two acks (tracked only by Cosmos), two reads.
func benchSeq() []Observation {
	return producerConsumerIter()
}

func benchObserve(b *testing.B, kind Kind, depth int) {
	p := New(kind, depth)
	seq := benchSeq()
	// Warm up until every pattern at this depth is learned, so the timed
	// loop exercises only the existing-pattern path.
	for i := 0; i < 4*depth+4; i++ {
		feed(p, seq...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(blk, seq[i%len(seq)])
	}
}

func BenchmarkObserve(b *testing.B) {
	for _, kind := range []Kind{KindCosmos, KindMSP, KindVMSP} {
		for _, depth := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%v/d%d", kind, depth), func(b *testing.B) {
				benchObserve(b, kind, depth)
			})
		}
	}
}

// BenchmarkObserveColdBlocks measures the allocation path: every access
// touches a new block, so block and pattern-table growth dominate.
func BenchmarkObserveColdBlocks(b *testing.B) {
	p := NewMSP(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Observe(BlockID(i), Observation{Type: MsgRead, Node: mem.NodeID(i % 16)})
	}
}

// BenchmarkPredictReaders measures the speculation surface: VMSP's single
// vector lookup vs MSP's chain expansion (which no longer clones the
// block state).
func BenchmarkPredictReaders(b *testing.B) {
	for _, kind := range []Kind{KindMSP, KindVMSP} {
		b.Run(kind.String(), func(b *testing.B) {
			p := New(kind, 1)
			for i := 0; i < 4; i++ {
				feed(p, producerConsumerIter()...)
			}
			feed(p, obs(MsgUpgrade, 3))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := p.PredictReaders(blk); !ok {
					b.Fatal("no prediction")
				}
			}
		})
	}
}

// TestPredictReadersSteadyStateZeroAllocs is the acceptance guard for
// the FR/SWI speculation surface: with the pattern tables warm, the full
// speculation round — PredictReaders (whose entry handles now live in
// the ReadPrediction's inline prefix), AssumeReaders for the forwarded
// copies (history pushes land in retained, pre-sized tables), a
// RetractReader, and a Prune on the returned handle — must not touch the
// heap, for every predictor kind. This finishes the zero-alloc path that
// TestObserveSteadyStateZeroAllocs pins for the observation side.
func TestPredictReadersSteadyStateZeroAllocs(t *testing.T) {
	for _, kind := range []Kind{KindCosmos, KindMSP, KindVMSP} {
		p := New(kind, 1)
		for i := 0; i < 4; i++ {
			feed(p, producerConsumerIter()...)
		}
		// advance replays the producer's write phase so the block's
		// history returns to the read-predicting point of the cycle
		// (Cosmos also tracks the two invalidation acks, so its history
		// must include them to land on the same point).
		advance := func() {
			p.Observe(blk, obs(MsgUpgrade, 3))
			if kind == KindCosmos {
				p.Observe(blk, obs(MsgAckInv, 1))
				p.Observe(blk, obs(MsgAckInv, 2))
			}
		}
		advance()
		// One warm speculation round so AssumeReaders' scoreless pushes
		// have created every pattern entry the cycle will ever need.
		rp, ok := p.PredictReaders(blk)
		if !ok {
			t.Fatalf("%v: no read prediction after warmup", kind)
		}
		p.AssumeReaders(blk, rp.Readers)
		advance()
		// outsider is a node never part of the predicted reader set:
		// retracting and pruning it exercises the verification surfaces
		// without mutating the learned cycle.
		const outsider = mem.NodeID(15)
		avg := testing.AllocsPerRun(1000, func() {
			rp, ok := p.PredictReaders(blk)
			if !ok {
				t.Fatal("prediction lost")
			}
			p.AssumeReaders(blk, rp.Readers)
			p.RetractReader(blk, outsider)
			rp.Prune(outsider)
			advance()
		})
		if avg != 0 {
			t.Errorf("%v: steady-state PredictReaders round allocates %.2f/op, want 0", kind, avg)
		}
	}
}

// TestObserveSteadyStateZeroAllocs is the acceptance guard for the packed
// pattern keys: once a pattern is learned, re-observing it must not touch
// the heap, for every predictor kind and evaluated depth.
func TestObserveSteadyStateZeroAllocs(t *testing.T) {
	for _, kind := range []Kind{KindCosmos, KindMSP, KindVMSP} {
		for _, depth := range []int{1, 2, 4} {
			p := New(kind, depth)
			seq := benchSeq()
			for i := 0; i < 4*depth+4; i++ {
				feed(p, seq...)
			}
			i := 0
			avg := testing.AllocsPerRun(1000, func() {
				p.Observe(blk, seq[i%len(seq)])
				i++
			})
			if avg != 0 {
				t.Errorf("%v d=%d: Observe steady state allocates %.2f/op, want 0", kind, depth, avg)
			}
		}
	}
}
