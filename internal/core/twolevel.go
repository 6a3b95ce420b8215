package core

import (
	"fmt"
	"slices"

	"specdsm/internal/mem"
)

// Kind selects one of the three predictor variants.
type Kind uint8

const (
	// KindCosmos is the general message predictor baseline [17].
	KindCosmos Kind = iota
	// KindMSP is the request-only Memory Sharing Predictor (§3).
	KindMSP
	// KindVMSP is the Vector MSP with read-run folding (§3.1).
	KindVMSP
)

func (k Kind) String() string {
	switch k {
	case KindCosmos:
		return "Cosmos"
	case KindMSP:
		return "MSP"
	case KindVMSP:
		return "VMSP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// MaxDepth is the largest supported history depth. The paper evaluates
// depths 1, 2, and 4; the packed pattern-key encoding (see patKey) sizes
// its fixed slots for MaxDepth symbols.
const MaxDepth = 4

// Pattern-key encoding and determinism contract
//
// A pattern key packs up to MaxDepth history symbols into one fixed-size
// comparable value instead of a heap-allocated string:
//
//   - tn holds the packed (type, node) pair of slot i in bits
//     [16i, 16i+16) (see packTN in symbol.go);
//   - vec[i] holds slot i's reader vector, packed through entryStore.vecID
//     (the raw inline word on narrow machines, a dense intern id on wide
//     ones — either way a bijection of the vector value). Non-zero only
//     for VMSP read-run symbols.
//
// Slot 0 is the oldest symbol. Unused slots are zero; since every pushed
// symbol has Type != MsgInvalid (= 0), histories of different lengths can
// never collide, so no explicit length field is needed in the key. The
// encoding is a bijection of the symbol sequence, which is what keeps the
// optimization observably identical to the old string-keyed tables: the
// pattern tables hold exactly the same (history → prediction) pairs, so
// every Observe/Predict result — and therefore every simulated cycle
// count pinned by the golden tests — is unchanged.
//
// patKey is a value type: blockState maintains the current history key
// incrementally (push shifts in place), and chain expansion in
// PredictReaders works on a stack copy instead of cloning a blockState.
type patKey struct {
	tn  uint64
	vec [MaxDepth]uint64
}

// push appends a packed symbol (tn slot word, vecID-packed vector) to a
// history holding have symbols at the given depth, shifting out the
// oldest symbol when full. It returns the new symbol count.
func (k *patKey) push(tn uint16, vid uint64, have, depth int) int {
	if have == depth {
		// Slots from depth on are zero, so shifting all MaxDepth slots
		// equals shifting the first depth, as fixed-size moves rather
		// than a variable-length copy.
		k.tn >>= 16
		k.vec = [MaxDepth]uint64{k.vec[1], k.vec[2], k.vec[3]}
		have--
	}
	k.tn |= uint64(tn) << (16 * uint(have))
	k.vec[have] = vid
	return have + 1
}

// patternKey identifies one pattern-table entry: the block plus its
// packed history. Entries live in the structure-of-arrays entryStore and
// are indexed through the open-addressed patTable (see store.go); folding
// every block's patterns into one predictor-wide table is what lets Reset
// reuse all storage without per-block containers.
type patternKey struct {
	id  BlockID
	key patKey
}

// blockState holds the per-block history register. Its zero value is a
// block that has seen nothing, so blockStates can grow by zeroed records.
// Entry references are 1 + the entry index, 0 meaning none.
type blockState struct {
	// key is the packed history, maintained incrementally by push.
	key patKey
	// n is the number of symbols currently in the history (≤ depth).
	n uint8
	// live is set on the block's first tracked touch (Census.Blocks).
	live bool
	// open is the read run accumulated since the last non-read symbol
	// (VMSP only).
	open mem.ReaderVec
	// lastWrite references the entry whose prediction recorded the
	// block's most recent write/upgrade; it carries the SWI premature bit.
	lastWrite int32
	// cur references the entry for the current history, 0 while it is
	// unknown (it may not exist yet).
	cur int32
	// pend references the entry whose succ is succPending: the one the
	// history last advanced past without a link. The next lookup of the
	// current history sets its link. Non-zero only while cur is 0.
	pend int32
}

func (bs *blockState) push(tn uint16, vid uint64, depth int) {
	bs.n = uint8(bs.key.push(tn, vid, int(bs.n), depth))
}

// TwoLevel is the shared two-level adaptive predictor engine. It is
// configured as Cosmos, MSP, or VMSP via Kind; see New.
type TwoLevel struct {
	kind  Kind
	depth int
	// blockStates is indexed by BlockID and grows on demand; Reset
	// truncates it, retaining the storage. blocks counts its live records.
	blockStates []blockState
	blocks      int
	// table is the single predictor-wide pattern table over store's
	// structure-of-arrays entries.
	table patTable
	store *entryStore
	stats Stats
	// maxChain bounds reader-chain expansion for non-vector predictors in
	// PredictReaders.
	maxChain int
	// confThreshold gates the speculation surfaces (PredictReaders,
	// PredictNext, PredictsUpgradeBy) on per-entry confidence; 0 disables
	// gating (the paper's behaviour). Accuracy scoring is unaffected.
	confThreshold uint8
}

// New constructs a predictor of the given kind with history depth d (the
// paper evaluates d = 1, 2, 4; at most MaxDepth is supported) for a
// machine of at most mem.InlineNodes nodes.
func New(kind Kind, depth int) *TwoLevel {
	return NewSized(kind, depth, mem.InlineNodes)
}

// NewSized is New for a machine of the given node count (≤ mem.MaxNodes).
// Predictors sized beyond mem.InlineNodes nodes intern reader vectors
// behind dense ids (see entryStore.vecID); narrow ones keep the exact
// single-word layout, so NewSized(k, d, n≤64) is observably identical to
// New(k, d).
func NewSized(kind Kind, depth, nodes int) *TwoLevel {
	if depth < 1 {
		panic(fmt.Sprintf("core: history depth %d < 1", depth))
	}
	if depth > MaxDepth {
		panic(fmt.Sprintf("core: history depth %d > MaxDepth %d", depth, MaxDepth))
	}
	if nodes < 1 || nodes > mem.MaxNodes {
		panic(fmt.Sprintf("core: node count %d out of range [1, %d]", nodes, mem.MaxNodes))
	}
	p := &TwoLevel{
		kind:     kind,
		depth:    depth,
		table:    patTable{vecKeys: kind == KindVMSP},
		store:    &entryStore{},
		maxChain: mem.InlineNodes,
	}
	if nodes > mem.InlineNodes {
		p.store.vecs = &vecIntern{}
		p.maxChain = nodes
	}
	return p
}

// NewCosmos returns the general message predictor baseline.
func NewCosmos(depth int) *TwoLevel { return New(KindCosmos, depth) }

// NewMSP returns the request-only Memory Sharing Predictor.
func NewMSP(depth int) *TwoLevel { return New(KindMSP, depth) }

// NewVMSP returns the Vector Memory Sharing Predictor.
func NewVMSP(depth int) *TwoLevel { return New(KindVMSP, depth) }

// SetConfidenceThreshold enables confidence gating of the speculation
// surfaces: only pattern entries whose 2-bit counter has reached n drive
// speculation. n is clamped to [0, 3]; 0 restores the paper's behaviour.
func (p *TwoLevel) SetConfidenceThreshold(n int) {
	switch {
	case n <= 0:
		p.confThreshold = 0
	case n > confMax:
		p.confThreshold = confMax
	default:
		p.confThreshold = uint8(n)
	}
}

// confident reports whether entry idx may drive speculation.
func (p *TwoLevel) confident(idx int32) bool {
	return p.store.conf(idx) >= p.confThreshold
}

// Name implements Predictor.
func (p *TwoLevel) Name() string { return p.kind.String() }

// Kind returns the predictor variant.
func (p *TwoLevel) Kind() Kind { return p.kind }

// HistoryDepth implements Predictor.
func (p *TwoLevel) HistoryDepth() int { return p.depth }

// Stats implements Predictor.
func (p *TwoLevel) Stats() Stats { return p.stats }

// Reset implements Predictor. Tables are cleared but their storage is
// retained, so a reset predictor re-learns without re-allocating; it is
// observably equivalent to a freshly constructed one. Outstanding
// SWIGuard and ReadPrediction handles are invalidated by Reset: their
// methods become no-ops (a generation check keeps them from touching the
// reused tables).
func (p *TwoLevel) Reset() {
	p.blockStates = p.blockStates[:0]
	p.blocks = 0
	p.table.reset()
	p.store.reset()
	p.stats = Stats{}
}

// tracks reports whether this predictor observes the message type. Cosmos
// tracks everything; MSP/VMSP only requests (§3: "an MSP only predicts
// memory request messages").
func (p *TwoLevel) tracks(t MsgType) bool {
	if t == MsgInvalid {
		return false
	}
	if p.kind == KindCosmos {
		return true
	}
	return t.IsRequest()
}

// block returns the state for id, marking it live on first touch. The
// returned pointer is valid until the next block call (slice growth).
func (p *TwoLevel) block(id BlockID) *blockState {
	if n := len(p.blockStates); int(id) >= n {
		p.blockStates = slices.Grow(p.blockStates, int(id)+1-n)[:id+1]
		clear(p.blockStates[n:])
	}
	bs := &p.blockStates[id]
	if !bs.live {
		bs.live = true
		p.blocks++
	}
	return bs
}

// lookup returns the state for id without growing blockStates; a block
// never touched reads as its zero state or nil.
func (p *TwoLevel) lookup(id BlockID) *blockState {
	if int(id) >= len(p.blockStates) {
		return nil
	}
	return &p.blockStates[id]
}

// settle records idx as the entry for bs's current history and sets the
// link of the entry that was waiting for it.
func (p *TwoLevel) settle(bs *blockState, idx int32) {
	bs.cur = idx + 1
	if bs.pend != 0 {
		if h := &p.store.hot[bs.pend-1]; h.succ == succPending {
			h.succ = idx + 1
		}
		bs.pend = 0
	}
}

// find returns the entry for bs's current history, if it exists: cur
// when known, else one table lookup.
func (p *TwoLevel) find(id BlockID, bs *blockState) (int32, bool) {
	if bs.cur != 0 {
		return bs.cur - 1, true
	}
	idx, ok := p.table.lookup(p.store, &patternKey{id, bs.key})
	if ok {
		p.settle(bs, idx)
	}
	return idx, ok
}

// current returns the entry for bs's current history like find, but
// allocates it predicting the packed (tn, vid) if it does not exist yet;
// created reports that it did not.
func (p *TwoLevel) current(id BlockID, bs *blockState, tn uint16, vid uint64) (idx int32, created bool) {
	if bs.cur != 0 {
		return bs.cur - 1, false
	}
	idx, created = p.table.reserve(p.store, &patternKey{id, bs.key}, tn, vid)
	p.settle(bs, idx)
	return idx, created
}

// advance pushes (tn, vid) — entry idx's prediction — onto bs's history
// and moves cur along idx's successor link; if the link is unknown, idx
// waits for the next lookup to set it.
func (p *TwoLevel) advance(bs *blockState, idx int32, tn uint16, vid uint64) {
	bs.push(tn, vid, p.depth)
	h := &p.store.hot[idx]
	if h.succ > 0 {
		bs.cur = h.succ
		return
	}
	h.succ = succPending
	bs.cur, bs.pend = 0, idx+1
}

// Observe implements Predictor. Messages must be fed in directory arrival
// order; each tracked message is scored exactly once against the
// prediction in effect when it arrived, then learned.
func (p *TwoLevel) Observe(id BlockID, obs Observation) Outcome {
	if !p.tracks(obs.Type) {
		return Outcome{}
	}
	bs := p.block(id)

	if p.kind == KindVMSP {
		return p.observeVMSP(id, bs, obs)
	}

	sym := Symbol{Type: obs.Type, Node: obs.Node}
	out := p.scoreAndLearn(id, bs, sym)
	p.stats.add(out)
	return out
}

// observeVMSP folds reads into the open run vector (§3.1). Each read is
// scored by membership in the predicted vector; a non-read first closes
// any open run (recording the complete vector as one history symbol) and
// is then scored as an ordinary symbol.
func (p *TwoLevel) observeVMSP(id BlockID, bs *blockState, obs Observation) Outcome {
	if obs.Type == MsgRead {
		out := Outcome{Tracked: true}
		if idx, ok := p.find(id, bs); ok {
			s := p.store
			if s.predValid(idx) {
				out.Predicted = true
				h := &s.hot[idx]
				// A read type with Node 0 is how a vector symbol packs,
				// but membership is what scores a VMSP read.
				if tnType(h.tn) == MsgRead &&
					s.vecAt(h.vec).Has(obs.Node) && !bs.open.Has(obs.Node) {
					out.Correct = true
					s.confUp(idx)
				} else {
					s.confDown(idx)
				}
			}
		}
		bs.open = bs.open.With(obs.Node)
		p.stats.add(out)
		return out
	}

	// Non-read: close the open run first, recording the actual complete
	// vector as the successor of the pre-run history. The individual reads
	// were already scored; recording is scoreless.
	if !bs.open.Empty() {
		vec := Symbol{Type: MsgRead, Vec: bs.open}
		p.learn(id, bs, vec)
		bs.open = mem.ReaderVec{}
	}
	sym := Symbol{Type: obs.Type, Node: obs.Node}
	out := p.scoreAndLearn(id, bs, sym)
	p.stats.add(out)
	return out
}

// scoreAndLearn scores sym against the entry for the current history, then
// records sym as that history's new prediction and pushes it.
func (p *TwoLevel) scoreAndLearn(id BlockID, bs *blockState, sym Symbol) Outcome {
	out := Outcome{Tracked: true}
	s := p.store
	tn, vid := sym.pack(), s.vecID(sym.Vec)
	idx, created := p.current(id, bs, tn, vid)
	if !created && s.predValid(idx) {
		out.Predicted = true
		// Packed equality: (type, node) word and vector word match ⟺
		// Symbol.Equal, since pack() and vecID are bijections.
		if h := &s.hot[idx]; h.tn == tn && h.vec == vid {
			out.Correct = true
			s.confUp(idx)
		} else {
			s.confDown(idx)
		}
	}
	s.setPred(idx, tn, vid)
	if sym.Type.IsWriteLike() {
		bs.lastWrite = idx + 1
	}
	p.advance(bs, idx, tn, vid)
	return out
}

// learn records sym as the successor of the current history without
// scoring (used when closing VMSP read runs).
func (p *TwoLevel) learn(id BlockID, bs *blockState, sym Symbol) {
	tn, vid := sym.pack(), p.store.vecID(sym.Vec)
	idx, _ := p.current(id, bs, tn, vid)
	p.store.setPred(idx, tn, vid)
	p.advance(bs, idx, tn, vid)
}

// PredictNext implements Predictor: the predicted successor of the
// block's current (closed) history.
func (p *TwoLevel) PredictNext(id BlockID) (Symbol, bool) {
	bs := p.lookup(id)
	if bs == nil {
		return Symbol{}, false
	}
	idx, ok := p.find(id, bs)
	if !ok {
		return Symbol{}, false
	}
	if !p.store.predValid(idx) || !p.confident(idx) {
		return Symbol{}, false
	}
	return p.store.pred(idx), true
}

// PredictReaders implements Predictor.
//
// For VMSP the prediction is the single vector entry following the current
// history. For MSP and Cosmos — which record reads individually — the
// reader set is expanded by chaining predictions: follow the predicted
// read symbols through the pattern table until a non-read prediction, a
// missing entry, a repeated reader, or the chain bound is reached. The
// paper's speculative DSM uses VMSP; chaining lets the benchmarks compare
// speculation quality across predictors as an ablation.
func (p *TwoLevel) PredictReaders(id BlockID) (ReadPrediction, bool) {
	bs := p.lookup(id)
	if bs == nil {
		return ReadPrediction{}, false
	}
	idx, ok := p.find(id, bs)
	if !ok {
		return ReadPrediction{}, false
	}
	s := p.store
	if p.kind == KindVMSP {
		vec := s.vecAt(s.hot[idx].vec)
		if tnType(s.hot[idx].tn) != MsgRead || vec.Empty() || !p.confident(idx) {
			return ReadPrediction{}, false
		}
		rp := ReadPrediction{Readers: vec, store: s, gen: s.gen}
		rp.addEntry(idx)
		return rp, true
	}

	// Chain expansion over a stack copy of the packed history key,
	// following successor links where they are known.
	key := bs.key
	n := int(bs.n)
	rp := ReadPrediction{store: s, gen: s.gen}
	for i := 0; i < p.maxChain; i++ {
		h := &s.hot[idx]
		if tnType(h.tn) != MsgRead || !p.confident(idx) {
			break
		}
		node := tnNode(h.tn)
		if rp.Readers.Has(node) {
			break
		}
		rp.Readers = rp.Readers.With(node)
		rp.addEntry(idx)
		n = key.push(h.tn, h.vec, n, p.depth)
		if h.succ > 0 {
			idx = h.succ - 1
		} else if idx, ok = p.table.lookup(s, &patternKey{id, key}); !ok {
			break
		}
	}
	if rp.Readers.Empty() {
		return ReadPrediction{}, false
	}
	return rp, true
}

// PredictsUpgradeBy implements Predictor. It must be called after the
// reader's request has been observed. For MSP/Cosmos the observation
// already pushed the read into the history, so the current history's
// prediction is the read's successor; for VMSP the read only opened the
// run, so the run is hypothetically closed (with reader included) first.
func (p *TwoLevel) PredictsUpgradeBy(id BlockID, reader mem.NodeID) bool {
	bs := p.lookup(id)
	if bs == nil {
		return false
	}
	pk := patternKey{id, bs.key}
	if p.kind == KindVMSP {
		// A run vector that was never learned cannot key any entry, so a
		// missing intern id is already a miss (vecIDIfPresent avoids
		// interning vectors on this predict-only path).
		vid, ok := p.store.vecIDIfPresent(bs.open.With(reader))
		if !ok {
			return false
		}
		pk.key.push(packTN(MsgRead, 0), vid, int(bs.n), p.depth)
	}
	idx, ok := p.table.lookup(p.store, &pk)
	if !ok {
		return false
	}
	if !p.store.predValid(idx) || !p.confident(idx) {
		return false
	}
	tn := p.store.hot[idx].tn
	return tnType(tn).IsWriteLike() && tnNode(tn) == reader
}

// SWIAllowed implements Predictor.
func (p *TwoLevel) SWIAllowed(id BlockID) bool {
	return p.SWIGuard(id).Allowed()
}

// SWIGuard implements Predictor.
func (p *TwoLevel) SWIGuard(id BlockID) SWIGuard {
	bs := p.lookup(id)
	if bs == nil || bs.lastWrite == 0 {
		return SWIGuard{}
	}
	return SWIGuard{store: p.store, idx: bs.lastWrite - 1, gen: p.store.gen}
}

// AssumeReaders implements Predictor. For VMSP the forwarded readers join
// the open run; for MSP/Cosmos they are recorded and pushed as individual
// read symbols (scorelessly), mirroring the history that real read
// requests would have produced.
func (p *TwoLevel) AssumeReaders(id BlockID, vec mem.ReaderVec) {
	if vec.Empty() {
		return
	}
	bs := p.block(id)
	if p.kind == KindVMSP {
		bs.open = bs.open.Union(vec)
		return
	}
	for n := vec.Next(0); n < mem.MaxNodes; n = vec.Next(n + 1) {
		p.learn(id, bs, Symbol{Type: MsgRead, Node: n})
	}
}

// RetractReader implements Predictor. Only the VMSP open run can be
// retracted; for MSP/Cosmos the pushed history symbol is left in place
// (the pattern entries themselves are fixed via ReadPrediction.Prune).
func (p *TwoLevel) RetractReader(id BlockID, n mem.NodeID) {
	bs := p.lookup(id)
	if bs == nil {
		return
	}
	bs.open = bs.open.Without(n)
}

// Census implements Predictor.
func (p *TwoLevel) Census() Census {
	return Census{
		HistoryDepth: p.depth,
		Blocks:       p.blocks,
		Entries:      p.store.len(),
	}
}

// BytesPerBlock evaluates the paper's Table 4 storage formulas for a
// 16-processor machine at history depth one:
//
//	Cosmos: (7 + 14·pte)/8  — 3-bit type + 4-bit id per symbol
//	MSP:    (6 + 12·pte)/8  — 2-bit type + 4-bit id per symbol
//	VMSP:   (18 + 24·pte)/8 — 2-bit type + 16-bit vector history symbol;
//	        a pte holds one vector plus one 6-bit request
//
// pte is the average pattern-table entries per allocated block.
func BytesPerBlock(kind Kind, pte float64) float64 {
	switch kind {
	case KindCosmos:
		return (7 + 14*pte) / 8
	case KindMSP:
		return (6 + 12*pte) / 8
	case KindVMSP:
		return (18 + 24*pte) / 8
	default:
		panic(fmt.Sprintf("core: unknown kind %v", kind))
	}
}

var _ Predictor = (*TwoLevel)(nil)
