package machine

import (
	"math/rand"
	"reflect"
	"testing"

	"specdsm/internal/core"
	"specdsm/internal/mem"
	"specdsm/internal/protocol"
	"specdsm/internal/sim"
)

// nineObservers are the predictor study's passive observers: Cosmos, MSP
// and VMSP at history depths 1, 2 and 4.
func nineObservers() []PredictorSpec {
	var specs []PredictorSpec
	for _, k := range []core.Kind{core.KindCosmos, core.KindMSP, core.KindVMSP} {
		for _, d := range []int{1, 2, 4} {
			specs = append(specs, PredictorSpec{Kind: k, Depth: d})
		}
	}
	return specs
}

// mixProgs is a seeded random read/write mix over blocks homed at every
// node, so each directory sees requests, acks and writebacks from
// racing nodes; it ends with a barrier.
func mixProgs(nodes, iters int, seed int64) []Program {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([]mem.BlockAddr, 4*nodes)
	for i := range blocks {
		blocks[i] = mem.MakeAddr(mem.NodeID(i%nodes), uint64(i/nodes))
	}
	progs := make([]Program, nodes)
	for it := 0; it < iters; it++ {
		for n := range progs {
			for k := 0; k < 6; k++ {
				blk := blocks[rng.Intn(len(blocks))]
				if rng.Intn(3) == 0 {
					progs[n] = append(progs[n], Write(blk))
				} else {
					progs[n] = append(progs[n], Read(blk))
				}
			}
			progs[n] = append(progs[n], Compute(sim.Cycle(rng.Intn(50))), Barrier())
		}
	}
	return progs
}

// observedPerHome runs progs on a fresh machine for cfg and counts the
// messages each directory observed, through the trace hook.
func observedPerHome(t *testing.T, cfg Config, progs []Program) []int {
	t.Helper()
	m := New(cfg)
	counts := make([]int, cfg.Nodes)
	m.System().SetTrace(func(_ sim.Cycle, addr mem.BlockAddr, _ core.MsgType, _ mem.NodeID) {
		counts[addr.Home()]++
	})
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	return counts
}

// padToResidue appends, after the programs' final barrier, reads of
// fresh blocks — exactly one directory message each — until every
// directory's observation count is congruent to residue modulo the log
// length.
func padToResidue(progs []Program, counts []int, residue int) {
	nodes := len(progs)
	for home, c := range counts {
		reader := (home + 1) % nodes
		pad := ((residue-c)%protocol.ObserverLogLen + protocol.ObserverLogLen) % protocol.ObserverLogLen
		for i := 0; i < pad; i++ {
			progs[reader] = append(progs[reader], Read(mem.MakeAddr(mem.NodeID(home), uint64(1000+i))))
		}
	}
}

// TestObservationLogEquivalence pins the batched observer feed against a
// per-message reference: reference predictors fed online from the trace
// hook, one set per directory, must end with the same Stats and Census
// as the machine's log-fed observers. Every directory's count crosses
// the log length several times, once ending mid-log and once on an
// exact multiple (where the last replay is a full log and the final
// flush has nothing left).
func TestObservationLogEquivalence(t *testing.T) {
	const nodes = 4
	for _, mode := range []string{"base", "swi"} {
		for _, residue := range []int{37, 0} {
			cfg := testCfg(mode)
			cfg.Observers = nineObservers()
			progs := mixProgs(nodes, 250, 5)
			padToResidue(progs, observedPerHome(t, cfg, progs), residue)

			m := New(cfg)
			ref := make([][]*core.TwoLevel, nodes)
			for i := range ref {
				for _, s := range cfg.Observers {
					ref[i] = append(ref[i], s.build(nodes))
				}
			}
			counts := make([]int, nodes)
			// The reference predictors name blocks by first-seen order
			// machine-wide, not by the directories' entry indices.
			ids := map[mem.BlockAddr]core.BlockID{}
			m.System().SetTrace(func(_ sim.Cycle, addr mem.BlockAddr, mt core.MsgType, node mem.NodeID) {
				h := addr.Home()
				counts[h]++
				id, ok := ids[addr]
				if !ok {
					id = core.BlockID(len(ids))
					ids[addr] = id
				}
				for _, p := range ref[h] {
					p.Observe(id, core.Observation{Type: mt, Node: node})
				}
			})
			r, err := m.Run(progs)
			if err != nil {
				t.Fatalf("%s/%d: %v", mode, residue, err)
			}
			for h, c := range counts {
				if c < 3*protocol.ObserverLogLen || c%protocol.ObserverLogLen != residue {
					t.Fatalf("%s/%d: directory %d observed %d messages, want at least %d and ≡ %d mod %d",
						mode, residue, h, c, 3*protocol.ObserverLogLen, residue, protocol.ObserverLogLen)
				}
			}
			for j, s := range cfg.Observers {
				var st core.Stats
				var ce core.Census
				for h := range ref {
					st = addStats(st, ref[h][j].Stats())
					ce = addCensus(ce, ref[h][j].Census(), s.Depth)
				}
				if r.PredStats[s] != st || r.PredCensus[s] != ce {
					t.Errorf("%s/%d %v: log-fed stats %+v census %+v, per-message reference %+v %+v",
						mode, residue, s, r.PredStats[s], r.PredCensus[s], st, ce)
				}
			}
		}
	}
}

// TestArenaReuseAfterFailedRun: a run that trips the event guard leaves
// observations in the directories' logs that were never replayed. The
// pool drops such a machine; the next pooled run of the configuration,
// and a run on the failed machine after Reset, must both match a freshly
// built machine exactly.
func TestArenaReuseAfterFailedRun(t *testing.T) {
	cfg := testCfg("swi")
	cfg.Observers = nineObservers()
	short := testProgs("pc", 4, 7)
	probe, err := New(cfg).Run(short)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxEvents = 2 * probe.Events
	failed := New(cfg)
	if _, err := failed.Run(mixProgs(4, 200, 3)); err == nil {
		t.Fatal("long run did not trip the event guard")
	}
	if _, err := Run(cfg, mixProgs(4, 200, 3)); err == nil {
		t.Fatal("long pooled run did not trip the event guard")
	}
	fresh, err := New(cfg).Run(short)
	if err != nil {
		t.Fatal(err)
	}
	failed.Reset()
	reset, err := failed.Run(short)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Run(cfg, short)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Result{"reset": reset, "pooled": pooled} {
		if !reflect.DeepEqual(fresh, got) {
			t.Errorf("%s run after a failed run diverged from fresh build\nfresh: %+v\n%s: %+v", name, fresh, name, got)
		}
	}
}
