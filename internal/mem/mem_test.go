package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMakeAddrRoundTrip(t *testing.T) {
	cases := []struct {
		home NodeID
		idx  uint64
	}{
		{0, 0},
		{1, 1},
		{15, 12345},
		{63, 1<<40 - 1},
	}
	for _, c := range cases {
		a := MakeAddr(c.home, c.idx)
		if a.Home() != c.home {
			t.Errorf("MakeAddr(%d,%d).Home() = %d", c.home, c.idx, a.Home())
		}
		if a.Index() != c.idx {
			t.Errorf("MakeAddr(%d,%d).Index() = %d", c.home, c.idx, a.Index())
		}
	}
}

func TestMakeAddrDistinct(t *testing.T) {
	seen := map[BlockAddr]bool{}
	for home := NodeID(0); home < 16; home++ {
		for idx := uint64(0); idx < 64; idx++ {
			a := MakeAddr(home, idx)
			if seen[a] {
				t.Fatalf("duplicate address %v", a)
			}
			seen[a] = true
		}
	}
}

func TestMakeAddrPanicsOnHugeIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	MakeAddr(0, 1<<homeShift)
}

func TestAddrRoundTripQuick(t *testing.T) {
	f := func(home uint16, idx uint64) bool {
		h := NodeID(home) % MaxNodes
		i := idx % (1 << homeShift)
		a := MakeAddr(h, i)
		return a.Home() == h && a.Index() == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReqKindString(t *testing.T) {
	if ReqRead.String() != "Read" || ReqWrite.String() != "Write" || ReqUpgrade.String() != "Upgrade" {
		t.Fatalf("unexpected strings: %v %v %v", ReqRead, ReqWrite, ReqUpgrade)
	}
	if got := ReqKind(9).String(); got != "ReqKind(9)" {
		t.Fatalf("unknown kind rendered %q", got)
	}
}

func TestIsWriteLike(t *testing.T) {
	if ReqRead.IsWriteLike() {
		t.Error("Read must not be write-like")
	}
	if !ReqWrite.IsWriteLike() || !ReqUpgrade.IsWriteLike() {
		t.Error("Write and Upgrade must be write-like")
	}
}

func TestReaderVecBasics(t *testing.T) {
	v := VecOf(1, 2)
	if !v.Has(1) || !v.Has(2) || v.Has(3) {
		t.Fatalf("membership wrong: %v", v)
	}
	if v.Count() != 2 {
		t.Fatalf("Count = %d, want 2", v.Count())
	}
	v = v.Without(1)
	if v.Has(1) || !v.Has(2) {
		t.Fatalf("Without failed: %v", v)
	}
	if v.Empty() {
		t.Fatal("vector with node 2 reported empty")
	}
	if !v.Without(2).Empty() {
		t.Fatal("emptied vector not empty")
	}
}

func TestReaderVecNodesSorted(t *testing.T) {
	v := VecOf(7, 0, 3, 15)
	nodes := v.Nodes()
	want := []NodeID{0, 3, 7, 15}
	if len(nodes) != len(want) {
		t.Fatalf("Nodes() = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes() = %v, want %v", nodes, want)
		}
	}
}

func TestReaderVecString(t *testing.T) {
	if got := VecOf(0, 2).String(); got != "{0,2}" {
		t.Fatalf("String() = %q", got)
	}
	if got := (ReaderVec{}).String(); got != "{}" {
		t.Fatalf("empty String() = %q", got)
	}
}

func TestReaderVecHasOutOfRange(t *testing.T) {
	if VecFromLow(0xFFFFFFFFFFFFFFFF).Has(NoNode) {
		t.Fatal("Has(NoNode) must be false")
	}
}

// Property: With/Without are inverses for nodes not already present, and
// Count tracks membership exactly.
func TestReaderVecQuick(t *testing.T) {
	f := func(raw uint64, n uint8) bool {
		v := VecFromLow(raw)
		node := NodeID(n) % MaxNodes
		with := v.With(node)
		if !with.Has(node) {
			return false
		}
		without := with.Without(node)
		if without.Has(node) {
			return false
		}
		// Adding a member not present grows count by one.
		if !v.Has(node) && with.Count() != v.Count()+1 {
			return false
		}
		return true
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the Next walk visits exactly the set bits of the inline word,
// in ascending order.
func TestReaderVecNextWalkMatchesBits(t *testing.T) {
	f := func(raw uint64) bool {
		v := VecFromLow(raw)
		var want []NodeID
		for i := 0; i < InlineNodes; i++ {
			if raw&(1<<i) != 0 {
				want = append(want, NodeID(i))
			}
		}
		i := 0
		for n := v.Next(0); n < MaxNodes; n = v.Next(n + 1) {
			if i >= len(want) || n != want[i] {
				return false
			}
			i++
		}
		return i == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
