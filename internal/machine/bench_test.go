package machine

import (
	"testing"

	"specdsm/internal/mem"
)

// stepProgram is the processor's common case: compute bursts between
// accesses to blocks its own node homes and caches, so after the first
// pass every access is a hit and the processor never waits on the
// protocol.
func stepProgram() Program {
	var prog Program
	for i := 0; i < 32; i++ {
		prog = append(prog, Compute(3), Read(mem.MakeAddr(0, uint64(i%4))), Write(mem.MakeAddr(0, uint64(i%4))))
	}
	return prog
}

// procSteps returns a function that runs prog once more on the single
// processor of a one-node machine through proc.step alone, without
// Machine.Run's per-run checks, and the number of steps each call takes.
func procSteps(prog Program) (run func(), steps int) {
	m := New(Config{Nodes: 1})
	p := newProc(m, 0, nil)
	return func() {
		p.rearm(prog)
		m.running++
		m.kernel.At(m.kernel.Now(), p.stepFn)
		m.kernel.Run(0)
	}, len(prog) + 1
}

// BenchmarkProcStep times the processor layer: one program op through
// proc.step and its completion callback. ns/op is per step.
func BenchmarkProcStep(b *testing.B) {
	run, steps := procSteps(stepProgram())
	run() // warm the caches and the kernel's event pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += steps {
		run()
	}
}

// TestProcStepAllocs pins BenchmarkProcStep's allocation count: a warm
// pass over the program allocates nothing.
func TestProcStepAllocs(t *testing.T) {
	run, _ := procSteps(stepProgram())
	run()
	if got := testing.AllocsPerRun(100, run); got > 0 {
		t.Errorf("warm proc.step pass allocates %.2f times, pinned at 0", got)
	}
}
