package core

import (
	"fmt"
	"math/rand"
	"testing"

	"specdsm/internal/mem"
)

// refPredictor is a test-only reference for TwoLevel, written for
// obviousness rather than speed: blocks are keyed by address in one Go
// map, pattern entries by (address, history) in another, every lookup
// hashes, and nothing caches an entry or links one to its successor.
// TestTwoLevelMatchesReference drives both with the same streams.
type refPredictor struct {
	kind     Kind
	depth    int
	maxChain int
	conf     uint8
	gen      int
	blocks   map[mem.BlockAddr]*refBlock
	table    map[string]*refEntry
	stats    Stats
}

type refBlock struct {
	hist      []Symbol // oldest first, at most depth symbols
	open      mem.ReaderVec
	lastWrite *refEntry
}

type refEntry struct {
	pred  Symbol
	conf  uint8
	noSWI bool
}

// refPrediction mirrors ReadPrediction.
type refPrediction struct {
	readers mem.ReaderVec
	entries []*refEntry
	gen     int
}

// refGuard mirrors SWIGuard.
type refGuard struct {
	e   *refEntry
	gen int
}

func newRef(kind Kind, depth, nodes int) *refPredictor {
	return &refPredictor{
		kind:     kind,
		depth:    depth,
		maxChain: max(nodes, mem.InlineNodes),
		blocks:   map[mem.BlockAddr]*refBlock{},
		table:    map[string]*refEntry{},
	}
}

func refKey(addr mem.BlockAddr, hist []Symbol) string {
	return fmt.Sprint(uint64(addr), hist)
}

func refPush(hist []Symbol, s Symbol, depth int) []Symbol {
	h := append(append([]Symbol(nil), hist...), s)
	if len(h) > depth {
		h = h[1:]
	}
	return h
}

func (r *refPredictor) tracks(t MsgType) bool {
	return t != MsgInvalid && (r.kind == KindCosmos || t.IsRequest())
}

func (r *refPredictor) block(addr mem.BlockAddr) *refBlock {
	b := r.blocks[addr]
	if b == nil {
		b = &refBlock{}
		r.blocks[addr] = b
	}
	return b
}

func (r *refPredictor) entry(addr mem.BlockAddr, hist []Symbol) *refEntry {
	return r.table[refKey(addr, hist)]
}

func (r *refPredictor) confident(e *refEntry) bool { return e.conf >= r.conf }

func (e *refEntry) score(hit bool, out *Outcome) {
	out.Predicted = true
	if hit {
		out.Correct = true
		if e.conf < confMax {
			e.conf++
		}
	} else if e.conf > 0 {
		e.conf--
	}
}

func (r *refPredictor) Observe(addr mem.BlockAddr, o Observation) Outcome {
	if !r.tracks(o.Type) {
		return Outcome{}
	}
	b := r.block(addr)
	out := Outcome{Tracked: true}
	if r.kind == KindVMSP && o.Type == MsgRead {
		if e := r.entry(addr, b.hist); e != nil && e.pred.Valid() {
			e.score(e.pred.Type == MsgRead && e.pred.Vec.Has(o.Node) && !b.open.Has(o.Node), &out)
		}
		b.open = b.open.With(o.Node)
		r.stats.add(out)
		return out
	}
	if r.kind == KindVMSP && !b.open.Empty() {
		r.learn(addr, b, Symbol{Type: MsgRead, Vec: b.open})
		b.open = mem.ReaderVec{}
	}
	sym := Symbol{Type: o.Type, Node: o.Node}
	e := r.entry(addr, b.hist)
	if e == nil {
		e = &refEntry{pred: sym}
		r.table[refKey(addr, b.hist)] = e
	} else {
		if e.pred.Valid() {
			e.score(e.pred.Equal(sym), &out)
		}
		e.pred = sym
	}
	if sym.Type.IsWriteLike() {
		b.lastWrite = e
	}
	b.hist = refPush(b.hist, sym, r.depth)
	r.stats.add(out)
	return out
}

func (r *refPredictor) learn(addr mem.BlockAddr, b *refBlock, sym Symbol) {
	if e := r.entry(addr, b.hist); e != nil {
		e.pred = sym
	} else {
		r.table[refKey(addr, b.hist)] = &refEntry{pred: sym}
	}
	b.hist = refPush(b.hist, sym, r.depth)
}

func (r *refPredictor) PredictNext(addr mem.BlockAddr) (Symbol, bool) {
	b := r.blocks[addr]
	if b == nil {
		return Symbol{}, false
	}
	e := r.entry(addr, b.hist)
	if e == nil || !e.pred.Valid() || !r.confident(e) {
		return Symbol{}, false
	}
	return e.pred, true
}

func (r *refPredictor) PredictReaders(addr mem.BlockAddr) (refPrediction, bool) {
	b := r.blocks[addr]
	if b == nil {
		return refPrediction{}, false
	}
	rp := refPrediction{gen: r.gen}
	if r.kind == KindVMSP {
		e := r.entry(addr, b.hist)
		if e == nil || e.pred.Type != MsgRead || e.pred.Vec.Empty() || !r.confident(e) {
			return refPrediction{}, false
		}
		rp.readers, rp.entries = e.pred.Vec, []*refEntry{e}
		return rp, true
	}
	hist := b.hist
	for i := 0; i < r.maxChain; i++ {
		e := r.entry(addr, hist)
		if e == nil || e.pred.Type != MsgRead || !r.confident(e) || rp.readers.Has(e.pred.Node) {
			break
		}
		rp.readers = rp.readers.With(e.pred.Node)
		rp.entries = append(rp.entries, e)
		hist = refPush(hist, e.pred, r.depth)
	}
	return rp, !rp.readers.Empty()
}

func (r *refPredictor) Prune(rp refPrediction, n mem.NodeID) {
	if rp.gen != r.gen {
		return
	}
	for _, e := range rp.entries {
		switch {
		case e.pred.Type != MsgRead:
		case !e.pred.Vec.Empty():
			if e.pred.Vec = e.pred.Vec.Without(n); e.pred.Vec.Empty() {
				e.pred = Symbol{}
			}
		case e.pred.Node == n:
			e.pred = Symbol{}
		}
	}
}

func (r *refPredictor) PredictsUpgradeBy(addr mem.BlockAddr, reader mem.NodeID) bool {
	b := r.blocks[addr]
	if b == nil {
		return false
	}
	hist := b.hist
	if r.kind == KindVMSP {
		hist = refPush(hist, Symbol{Type: MsgRead, Vec: b.open.With(reader)}, r.depth)
	}
	e := r.entry(addr, hist)
	if e == nil || !e.pred.Valid() || !r.confident(e) {
		return false
	}
	return e.pred.Type.IsWriteLike() && e.pred.Node == reader
}

func (r *refPredictor) SWIGuard(addr mem.BlockAddr) refGuard {
	if b := r.blocks[addr]; b != nil {
		return refGuard{e: b.lastWrite, gen: r.gen}
	}
	return refGuard{}
}

func (r *refPredictor) allowed(g refGuard) bool {
	return g.e == nil || g.gen != r.gen || !g.e.noSWI
}

func (r *refPredictor) markPremature(g refGuard) {
	if g.e != nil && g.gen == r.gen {
		g.e.noSWI = true
	}
}

func (r *refPredictor) AssumeReaders(addr mem.BlockAddr, vec mem.ReaderVec) {
	if vec.Empty() {
		return
	}
	b := r.block(addr)
	if r.kind == KindVMSP {
		b.open = b.open.Union(vec)
		return
	}
	for _, n := range vec.Nodes() {
		r.learn(addr, b, Symbol{Type: MsgRead, Node: n})
	}
}

func (r *refPredictor) RetractReader(addr mem.BlockAddr, n mem.NodeID) {
	if b := r.blocks[addr]; b != nil {
		b.open = b.open.Without(n)
	}
}

func (r *refPredictor) Census() Census {
	return Census{Blocks: len(r.blocks), Entries: len(r.table), HistoryDepth: r.depth}
}

func (r *refPredictor) Reset() {
	clear(r.blocks)
	clear(r.table)
	r.stats = Stats{}
	r.gen++
}

// TestTwoLevelMatchesReference is the differential oracle for dense
// block ids, successor links and the single-probe miss path: seeded
// random streams of every Predictor operation — Observe, AssumeReaders,
// RetractReader, PredictReaders with Prune on the handle (now or later,
// stale handles included), SWIGuard().MarkPremature and Reset — go to a
// TwoLevel and to refPredictor, and every result must agree. Blocks
// reach TwoLevel through ids handed out in first-seen order with gaps,
// as a directory's entry indices have them.
func TestTwoLevelMatchesReference(t *testing.T) {
	for _, nodes := range []int{16, 65} {
		for _, kind := range []Kind{KindCosmos, KindMSP, KindVMSP} {
			for _, depth := range []int{1, 2, 4} {
				for seed := int64(1); seed <= 4; seed++ {
					t.Run(fmt.Sprintf("n%d/%v/d%d/s%d", nodes, kind, depth, seed), func(t *testing.T) {
						runDifferential(t, kind, depth, nodes, seed, 3000)
					})
				}
			}
		}
	}
}

func runDifferential(t *testing.T, kind Kind, depth, nodes int, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	p := NewSized(kind, depth, nodes)
	ref := newRef(kind, depth, nodes)
	if seed%2 == 0 {
		p.SetConfidenceThreshold(2)
		ref.conf = 2
	}
	pool := []mem.NodeID{1, 2, 3, mem.NodeID(nodes - 1)}
	if nodes > mem.InlineNodes {
		pool = []mem.NodeID{1, 2, 63, 64}
	}
	node := func() mem.NodeID { return pool[rng.Intn(len(pool))] }
	randObs := func() Observation {
		types := []MsgType{MsgRead, MsgRead, MsgRead, MsgWrite, MsgUpgrade, MsgAckInv, MsgWriteback}
		return Observation{Type: types[rng.Intn(len(types))], Node: node()}
	}
	randVec := func() mem.ReaderVec {
		var v mem.ReaderVec
		for _, n := range pool {
			if rng.Intn(3) == 0 {
				v = v.With(n)
			}
		}
		return v
	}

	// Each block replays its own short script, with noise, so patterns
	// repeat and get predicted. The last address is only ever queried.
	const nblocks = 6
	addrs := make([]mem.BlockAddr, nblocks)
	scripts := make([][]Observation, nblocks)
	pos := make([]int, nblocks)
	for b := range addrs {
		addrs[b] = mem.MakeAddr(mem.NodeID(b%3), uint64(rng.Intn(1<<20)))
		for i := 0; i < 3+rng.Intn(5); i++ {
			scripts[b] = append(scripts[b], randObs())
		}
	}
	ids := map[mem.BlockAddr]BlockID{}
	next := BlockID(0)
	id := func(addr mem.BlockAddr) BlockID {
		if v, ok := ids[addr]; ok {
			return v
		}
		ids[addr] = next
		next += 1 + BlockID(rng.Intn(3))
		return ids[addr]
	}

	type handles struct {
		rp  ReadPrediction
		ref refPrediction
		g   SWIGuard
		rg  refGuard
	}
	var kept []handles
	// unverified holds speculation rounds whose verification — Prune and
	// RetractReader of one unused reader — arrives later, after the
	// block's history has moved on, as acknowledgements do.
	type round struct {
		rp   ReadPrediction
		ref  refPrediction
		addr mem.BlockAddr
		n    mem.NodeID
	}
	var unverified []round

	for step := 0; step < steps; step++ {
		b := rng.Intn(nblocks - 1)
		addr := addrs[b]
		at := func(what string) string {
			return fmt.Sprintf("step %d (%s) block %d", step, what, b)
		}
		switch r := rng.Intn(1000); {
		case r < 600:
			o := scripts[b][pos[b]]
			pos[b] = (pos[b] + 1) % len(scripts[b])
			if rng.Intn(10) == 0 {
				o = randObs()
			}
			if got, want := p.Observe(id(addr), o), ref.Observe(addr, o); got != want {
				t.Fatalf("%s: Observe(%v) = %+v, reference %+v", at("observe"), o, got, want)
			}
		case r < 720:
			// The speculation round of a directory: forward to the
			// predicted readers, then verification finds one unused.
			rp, ok := p.PredictReaders(id(addr))
			rrp, rok := ref.PredictReaders(addr)
			if ok != rok || !rp.Readers.Equal(rrp.readers) {
				t.Fatalf("%s: PredictReaders = %v,%v, reference %v,%v", at("speculate"), rp.Readers, ok, rrp.readers, rok)
			}
			if !ok {
				break
			}
			p.AssumeReaders(id(addr), rp.Readers)
			ref.AssumeReaders(addr, rrp.readers)
			if rng.Intn(3) > 0 {
				ns := rp.Readers.Nodes()
				unverified = append(unverified, round{rp, rrp, addr, ns[rng.Intn(len(ns))]})
			}
		case r < 800:
			if len(unverified) == 0 {
				break
			}
			v := unverified[0]
			unverified = unverified[1:]
			v.rp.Prune(v.n)
			ref.Prune(v.ref, v.n)
			p.RetractReader(id(v.addr), v.n)
			ref.RetractReader(v.addr, v.n)
		case r < 840:
			v := randVec()
			p.AssumeReaders(id(addr), v)
			ref.AssumeReaders(addr, v)
		case r < 860:
			v := randVec()
			p.AssumeReaders(id(addr), v)
			ref.AssumeReaders(addr, v)
		case r < 880:
			n := node()
			p.RetractReader(id(addr), n)
			ref.RetractReader(addr, n)
		case r < 900:
			rp, ok := p.PredictReaders(id(addr))
			rrp, rok := ref.PredictReaders(addr)
			if ok != rok || !rp.Readers.Equal(rrp.readers) {
				t.Fatalf("%s: PredictReaders = %v,%v, reference %v,%v", at("predict"), rp.Readers, ok, rrp.readers, rok)
			}
			if ok {
				kept = append(kept, handles{rp: rp, ref: rrp})
			}
		case r < 940:
			if len(kept) > 0 {
				i := rng.Intn(len(kept))
				n := node()
				kept[i].rp.Prune(n)
				ref.Prune(kept[i].ref, n)
			}
		case r < 980:
			g, rg := p.SWIGuard(id(addr)), ref.SWIGuard(addr)
			if g.Allowed() != ref.allowed(rg) {
				t.Fatalf("%s: guard Allowed = %v, reference %v", at("guard"), g.Allowed(), ref.allowed(rg))
			}
			kept = append(kept, handles{g: g, rg: rg})
			k := kept[rng.Intn(len(kept))]
			k.g.MarkPremature()
			ref.markPremature(k.rg)
		case r < 997:
			// Query-only block: it has an id but no state.
			addr = addrs[nblocks-1]
		default:
			p.Reset()
			ref.Reset()
		}

		if got, want := p.Stats(), ref.stats; got != want {
			t.Fatalf("%s: Stats = %+v, reference %+v", at("stats"), got, want)
		}
		if got, want := p.Census(), ref.Census(); got != want {
			t.Fatalf("%s: Census = %+v, reference %+v", at("census"), got, want)
		}
		// Queries cache the current entry and set links, so skip them
		// half the time to leave runs of operations unobserved.
		if rng.Intn(2) == 0 {
			continue
		}
		sym, ok := p.PredictNext(id(addr))
		rsym, rok := ref.PredictNext(addr)
		if ok != rok || !sym.Equal(rsym) {
			t.Fatalf("%s: PredictNext = %v,%v, reference %v,%v", at("query"), sym, ok, rsym, rok)
		}
		rp, ok := p.PredictReaders(id(addr))
		rrp, rok := ref.PredictReaders(addr)
		if ok != rok || !rp.Readers.Equal(rrp.readers) {
			t.Fatalf("%s: PredictReaders = %v,%v, reference %v,%v", at("query"), rp.Readers, ok, rrp.readers, rok)
		}
		n := node()
		if got, want := p.PredictsUpgradeBy(id(addr), n), ref.PredictsUpgradeBy(addr, n); got != want {
			t.Fatalf("%s: PredictsUpgradeBy(%d) = %v, reference %v", at("query"), n, got, want)
		}
		if got, want := p.SWIAllowed(id(addr)), ref.allowed(ref.SWIGuard(addr)); got != want {
			t.Fatalf("%s: SWIAllowed = %v, reference %v", at("query"), got, want)
		}
	}
}
