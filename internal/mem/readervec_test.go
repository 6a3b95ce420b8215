package mem

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refReaderSet is the map-backed oracle for ReaderVec: every operation is
// restated in terms of a plain set of node ids, and the differential tests
// drive both representations with the same operation sequence and require
// identical answers. This mirrors how sim.ReferenceKernel pinned the time
// wheel rewrite.
type refReaderSet map[NodeID]bool

func (r refReaderSet) clone() refReaderSet {
	out := make(refReaderSet, len(r))
	for n := range r {
		out[n] = true
	}
	return out
}

func (r refReaderSet) with(n NodeID) refReaderSet    { c := r.clone(); c[n] = true; return c }
func (r refReaderSet) without(n NodeID) refReaderSet { c := r.clone(); delete(c, n); return c }

func (r refReaderSet) union(o refReaderSet) refReaderSet {
	c := r.clone()
	for n := range o {
		c[n] = true
	}
	return c
}

func (r refReaderSet) andNot(o refReaderSet) refReaderSet {
	c := r.clone()
	for n := range o {
		delete(c, n)
	}
	return c
}

func (r refReaderSet) nodes() []NodeID {
	out := make([]NodeID, 0, len(r))
	for n := range r {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// next is the oracle for ReaderVec.Next: the smallest member ≥ n, or
// MaxNodes when there is none.
func (r refReaderSet) next(n NodeID) NodeID { return nextIn(r.nodes(), n) }

// nextIn is next over an already sorted member list.
func nextIn(sorted []NodeID, n NodeID) NodeID {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= n })
	if i == len(sorted) {
		return MaxNodes
	}
	return sorted[i]
}

// nextProbes are the Next start points every differential check covers:
// both ends of the inline word, the first two extension group edges, the
// last node, and the out-of-range starts.
var nextProbes = []NodeID{0, 1, InlineNodes - 1, InlineNodes, InlineNodes + 1,
	2*InlineNodes - 1, 2 * InlineNodes, MaxNodes - 1, MaxNodes, NoNode}

// checkNext compares Next against the oracle at the boundary probes and
// at every member and its successor, then walks the whole set with the
// Next idiom.
func checkNext(t *testing.T, tag string, v ReaderVec, ref refReaderSet) {
	t.Helper()
	want := ref.nodes()
	probes := append([]NodeID(nil), nextProbes...)
	for _, m := range want {
		probes = append(probes, m, m+1)
	}
	for _, n := range probes {
		if got, w := v.Next(n), nextIn(want, n); got != w {
			t.Fatalf("%s: Next(%d) = %d, want %d", tag, n, got, w)
		}
	}
	i := 0
	for n := v.Next(0); n < MaxNodes; n = v.Next(n + 1) {
		if i >= len(want) || n != want[i] {
			t.Fatalf("%s: Next walk visited %d at step %d, want %v", tag, n, i, want)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("%s: Next walk visited %d members, want %d", tag, i, len(want))
	}
}

func (r refReaderSet) equal(o refReaderSet) bool {
	if len(r) != len(o) {
		return false
	}
	for n := range r {
		if !o[n] {
			return false
		}
	}
	return true
}

func (r refReaderSet) str() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range r.nodes() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", n)
	}
	b.WriteByte('}')
	return b.String()
}

// checkAgainstRef compares every observable of v against the oracle.
func checkAgainstRef(t *testing.T, tag string, v ReaderVec, ref refReaderSet, width int) {
	t.Helper()
	if v.Count() != len(ref) {
		t.Fatalf("%s: Count = %d, want %d", tag, v.Count(), len(ref))
	}
	if v.Empty() != (len(ref) == 0) {
		t.Fatalf("%s: Empty = %v, want %v", tag, v.Empty(), len(ref) == 0)
	}
	checkNext(t, tag, v, ref)
	wantNodes := ref.nodes()
	gotNodes := v.Nodes()
	if len(gotNodes) != len(wantNodes) {
		t.Fatalf("%s: Nodes = %v, want %v", tag, gotNodes, wantNodes)
	}
	for i := range wantNodes {
		if gotNodes[i] != wantNodes[i] {
			t.Fatalf("%s: Nodes = %v, want %v", tag, gotNodes, wantNodes)
		}
	}
	if got, want := v.String(), ref.str(); got != want {
		t.Fatalf("%s: String = %q, want %q", tag, got, want)
	}
	checkInvariants(t, tag, v)
	// Membership probes across the whole width plus the boundary beyond.
	probes := []NodeID{0, 1, InlineNodes - 1, InlineNodes, InlineNodes + 1,
		NodeID(width - 1), NoNode}
	for _, n := range probes {
		if n >= MaxNodes && n != NoNode {
			continue
		}
		if v.Has(n) != ref[n] {
			t.Fatalf("%s: Has(%d) = %v, want %v", tag, n, v.Has(n), ref[n])
		}
	}
}

// checkInvariants asserts the two-tier representation invariants that the
// package documents: the extension pointer is pruned when empty, and the
// summary word mirrors leaf occupancy exactly.
func checkInvariants(t *testing.T, tag string, v ReaderVec) {
	t.Helper()
	if v.ext == nil {
		return
	}
	if v.ext.sum == 0 {
		t.Fatalf("%s: non-nil ext with empty summary (normalization broken)", tag)
	}
	for g := 1; g < InlineNodes; g++ {
		leafSet := v.ext.leaf[g-1] != 0
		sumSet := v.ext.sum&(1<<uint(g)) != 0
		if leafSet != sumSet {
			t.Fatalf("%s: sum bit %d = %v but leaf occupancy = %v", tag, g, sumSet, leafSet)
		}
	}
	if v.ext.sum&1 != 0 {
		t.Fatalf("%s: summary bit 0 set (group 0 is the inline word)", tag)
	}
}

// diffWidths are the widths the ISSUE's acceptance criteria name.
var diffWidths = []int{1, 63, 64, 65, 256, 4096}

// TestReaderVecDifferential drives long random operation sequences
// against the map oracle at every contract width.
func TestReaderVecDifferential(t *testing.T) {
	for _, width := range diffWidths {
		width := width
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(width)*7919 + 1))
			v := ReaderVec{}
			ref := refReaderSet{}
			// other is a second (vector, oracle) pair for the binary ops.
			other := ReaderVec{}
			refOther := refReaderSet{}
			for step := 0; step < 4000; step++ {
				n := NodeID(rng.Intn(width))
				tag := fmt.Sprintf("width %d step %d", width, step)
				switch rng.Intn(10) {
				case 0, 1, 2:
					v = v.With(n)
					ref = ref.with(n)
				case 3, 4:
					v = v.Without(n)
					ref = ref.without(n)
				case 5:
					other = other.With(n)
					refOther = refOther.with(n)
				case 6:
					u := v.Union(other)
					checkAgainstRef(t, tag+" union", u, ref.union(refOther), width)
				case 7:
					d := v.AndNot(other)
					checkAgainstRef(t, tag+" andnot", d, ref.andNot(refOther), width)
				case 8:
					if v.Equal(other) != ref.equal(refOther) {
						t.Fatalf("%s: Equal = %v, want %v", tag, v.Equal(other), ref.equal(refOther))
					}
					if !v.Equal(v) || !other.Equal(other) {
						t.Fatalf("%s: Equal not reflexive", tag)
					}
				case 9:
					// Value-semantics check: mutating a copy must not
					// disturb the original (copy-on-write aliasing).
					saved := ref.clone()
					mutated := v.With(n).Without(ref.next(0))
					_ = mutated
					checkAgainstRef(t, tag+" after copy-mutation", v, saved, width)
				}
				checkAgainstRef(t, tag, v, ref, width)
			}
			// Drain to empty through Next/Without: every step removes
			// the current minimum, and the walk must end at MaxNodes.
			for w, guard := v, 0; !w.Empty(); guard++ {
				if guard > width {
					t.Fatal("Next/Without drain did not terminate")
				}
				low := w.Next(0)
				if !w.Has(low) {
					t.Fatalf("Next(0) = %d not a member", low)
				}
				w = w.Without(low)
				if w.Next(low) != ref.without(low).next(low) {
					t.Fatalf("Next(%d) after removing it = %d", low, w.Next(low))
				}
				ref = ref.without(low)
			}
		})
	}
}

// TestReaderVecHashEqualConsistency: equal vectors hash equally even when
// built along different operation paths (different ext sharing).
func TestReaderVecHashEqualConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		nodes := make([]NodeID, rng.Intn(20)+1)
		for i := range nodes {
			nodes[i] = NodeID(rng.Intn(MaxNodes))
		}
		a := VecOf(nodes...)
		// Build b in shuffled order with a detour through extra members.
		perm := rng.Perm(len(nodes))
		b := ReaderVec{}
		extra := NodeID(rng.Intn(MaxNodes))
		b = b.With(extra)
		for _, i := range perm {
			b = b.With(nodes[i])
		}
		if !a.Has(extra) {
			b = b.Without(extra)
		}
		if !a.Equal(b) {
			t.Fatalf("trial %d: equal sets compare unequal: %v vs %v", trial, a, b)
		}
		if a.Hash() != b.Hash() {
			t.Fatalf("trial %d: equal sets hash differently", trial)
		}
	}
}

// TestReaderVecBoundary pins the out-of-range contract at the exact edge:
// n = MaxNodes-1 is accepted, n = MaxNodes panics (the silent-drop
// footgun the old API had), and the tolerant read-side ops stay safe.
func TestReaderVecBoundary(t *testing.T) {
	v := VecOf(MaxNodes - 1)
	if !v.Has(MaxNodes-1) || v.Count() != 1 || v.Next(0) != MaxNodes-1 ||
		v.Next(MaxNodes-1) != MaxNodes-1 || v.Next(MaxNodes) != MaxNodes {
		t.Fatalf("VecOf(MaxNodes-1) = %v", v)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("With(MaxNodes)", func() { _ = ReaderVec{}.With(MaxNodes) })
	mustPanic("VecOf(MaxNodes)", func() { _ = VecOf(MaxNodes) })
	mustPanic("With(NoNode)", func() { _ = ReaderVec{}.With(NoNode) })

	// Read-side operations tolerate out-of-range ids (NoNode flows
	// through Without/Has in the protocol's owner bookkeeping).
	full := VecOf(0, InlineNodes, MaxNodes-1)
	if full.Has(NoNode) || full.Has(MaxNodes) {
		t.Fatal("Has out of range must be false")
	}
	if got := full.Without(NoNode); !got.Equal(full) {
		t.Fatal("Without(NoNode) must be a no-op")
	}
	// Inline-tier boundary: 63 stays in lo, 64 opens the extension.
	lo := VecOf(InlineNodes - 1)
	if lo.ext != nil {
		t.Fatal("node 63 must stay in the inline word")
	}
	hi := VecOf(InlineNodes)
	if hi.ext == nil {
		t.Fatal("node 64 must open the extension tier")
	}
	if pruned := hi.Without(InlineNodes); pruned.ext != nil {
		t.Fatal("removing the last wide member must prune the extension")
	}
}

// TestReaderVecLowWord pins the narrow-machine packing contract.
func TestReaderVecLowWord(t *testing.T) {
	v := VecOf(0, 5, 63)
	if got := v.LowWord(); got != 1|1<<5|1<<63 {
		t.Fatalf("LowWord = %#x", got)
	}
	if !VecFromLow(v.LowWord()).Equal(v) {
		t.Fatal("VecFromLow(LowWord) must round-trip")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LowWord on a wide vector must panic")
		}
	}()
	_ = VecOf(64).LowWord()
}

// FuzzReaderVec interprets the fuzz input as an operation program over one
// vector and replays it against the map oracle.
func FuzzReaderVec(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42, 0xff, 0x10})
	f.Add([]byte{0x80, 0x81, 0x02, 0x90, 0x41, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := ReaderVec{}
		ref := refReaderSet{}
		other := ReaderVec{}
		refOther := refReaderSet{}
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 6
			n := NodeID(uint16(data[i+1])<<8|uint16(data[i+2])) % MaxNodes
			switch op {
			case 0:
				v = v.With(n)
				ref = ref.with(n)
			case 1:
				v = v.Without(n)
				ref = ref.without(n)
			case 2:
				other = other.With(n)
				refOther = refOther.with(n)
			case 3:
				v = v.Union(other)
				ref = ref.union(refOther)
			case 4:
				v = v.AndNot(other)
				ref = ref.andNot(refOther)
			case 5:
				if v.Equal(other) != ref.equal(refOther) {
					t.Fatalf("Equal diverged from oracle")
				}
			}
			if got, want := v.Next(n), ref.next(n); got != want {
				t.Fatalf("Next(%d) diverged: %d vs %d", n, got, want)
			}
		}
		if v.Count() != len(ref) || v.Empty() != (len(ref) == 0) {
			t.Fatalf("Count/Empty diverged: %d vs %d", v.Count(), len(ref))
		}
		checkNext(t, "fuzz", v, ref)
		nodes := v.Nodes()
		want := ref.nodes()
		if len(nodes) != len(want) {
			t.Fatalf("Nodes diverged: %v vs %v", nodes, want)
		}
		for i := range want {
			if nodes[i] != want[i] {
				t.Fatalf("Nodes diverged: %v vs %v", nodes, want)
			}
		}
		if got, wantS := v.String(), ref.str(); got != wantS {
			t.Fatalf("String diverged: %q vs %q", got, wantS)
		}
		rebuilt := VecOf(nodes...)
		if !rebuilt.Equal(v) || rebuilt.Hash() != v.Hash() {
			t.Fatal("VecOf(Nodes()) must rebuild an equal, equally-hashing vector")
		}
	})
}

// TestReaderVecNextZeroAllocs pins the reason Next exists: walking a
// wide set (members in the inline word and in several extension groups
// of a 256-node machine) reads the vector in place and allocates nothing.
func TestReaderVecNextZeroAllocs(t *testing.T) {
	var v ReaderVec
	for n := NodeID(0); n < 256; n += 7 {
		v = v.With(n)
	}
	want := v.Count()
	var visited int
	avg := testing.AllocsPerRun(100, func() {
		visited = 0
		for n := v.Next(0); n < MaxNodes; n = v.Next(n + 1) {
			visited++
		}
	})
	if avg != 0 {
		t.Errorf("Next walk over %d members allocates %.2f/run, want 0", want, avg)
	}
	if visited != want {
		t.Fatalf("Next walk visited %d members, want %d", visited, want)
	}
}
