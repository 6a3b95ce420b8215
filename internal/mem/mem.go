package mem

import (
	"fmt"
	"math/bits"
	"strings"
)

// NodeID identifies one node of the machine. Nodes are numbered 0..N-1.
// The paper simulates a 16-node CC-NUMA; the implementation supports up to
// MaxNodes (4096) via the two-tier ReaderVec representation.
type NodeID uint16

// NoNode is a sentinel for "no owner"/"no node".
const NoNode NodeID = 0xFFFF

// InlineNodes is the width of the inline reader-vector word: machines with
// at most this many nodes never touch the extension tier (see ReaderVec).
const InlineNodes = 64

// MaxNodes is the largest machine size supported by ReaderVec:
// InlineNodes groups of InlineNodes nodes each.
const MaxNodes = InlineNodes * InlineNodes

// BlockAddr is the address of one coherence block. Addresses are already
// block-aligned indices (the simulator has no byte-level addressing needs);
// a block address embeds its home node so that home lookup is O(1).
type BlockAddr uint64

// BlockBytes is the coherence block size from Table 1 of the paper.
const BlockBytes = 32

// homeShift positions the home node in the top 12 bits of a BlockAddr
// (enough for MaxNodes distinct homes).
const homeShift = 52

// MakeAddr constructs the address of the idx-th block homed at node home.
// Every distinctly numbered block is a distinct 32-byte coherence unit.
func MakeAddr(home NodeID, idx uint64) BlockAddr {
	if idx >= 1<<homeShift {
		panic(fmt.Sprintf("mem: block index %d out of range", idx))
	}
	return BlockAddr(uint64(home)<<homeShift | idx)
}

// Home returns the node that owns the directory entry for the block.
func (a BlockAddr) Home() NodeID { return NodeID(a >> homeShift) }

// Index returns the per-home block index encoded in the address.
func (a BlockAddr) Index() uint64 { return uint64(a) & (1<<homeShift - 1) }

// String renders "home:index" for debugging.
func (a BlockAddr) String() string {
	return fmt.Sprintf("%d:%#x", a.Home(), a.Index())
}

// ReqKind enumerates the three memory request message types of the
// full-map write-invalidate protocol (paper §2): Read fetches a read-only
// copy, Write fetches a writable copy, Upgrade promotes an already cached
// read-only copy to writable.
type ReqKind uint8

const (
	ReqRead ReqKind = iota
	ReqWrite
	ReqUpgrade
	numReqKinds
)

// NumReqKinds is the number of distinct request kinds (used by encoders).
const NumReqKinds = int(numReqKinds)

// IsWriteLike reports whether the request acquires write permission.
func (k ReqKind) IsWriteLike() bool { return k == ReqWrite || k == ReqUpgrade }

func (k ReqKind) String() string {
	switch k {
	case ReqRead:
		return "Read"
	case ReqWrite:
		return "Write"
	case ReqUpgrade:
		return "Upgrade"
	default:
		return fmt.Sprintf("ReqKind(%d)", uint8(k))
	}
}

// ReaderVec is a set of node identifiers, used by the full-map directory
// for its sharer list and by VMSP to encode a read run (paper §3.1). The
// zero value is the empty vector.
//
// Representation (two tiers):
//
//   - lo holds nodes 0..InlineNodes-1 inline, one bit each. Machines with
//     N ≤ InlineNodes nodes live entirely in this word — exactly the old
//     single-uint64 layout — so every fast path stays one word wide and
//     allocation-free.
//   - ext, when non-nil, holds nodes InlineNodes..MaxNodes-1 as a
//     two-level bitmap: leaf[g-1] is the word for node group g (nodes
//     [64g, 64g+64)), and sum bit g is set exactly when leaf[g-1] is
//     non-zero, so scans skip empty groups with one summary-word test.
//
// Invariants:
//
//  1. ext == nil ⟺ the vector has no member ≥ InlineNodes. Operations
//     that empty the extension tier prune the pointer, so logically equal
//     vectors are structurally equal and Empty is a two-field test.
//  2. ext is copy-on-write: vectors share extensions freely and every
//     mutating operation clones before writing, so ReaderVec keeps value
//     semantics. A *vecExt reachable from more than one vector is never
//     written through. Read-only operations, Next included, never clone.
//  3. sum bit g ⟺ leaf[g-1] != 0, and ext != nil ⟹ sum != 0.
//
// ReaderVec is deliberately non-comparable (== would compare extension
// pointers, not contents); use Equal.
type ReaderVec struct {
	_   [0]func() // non-comparable: force Equal instead of ==
	lo  uint64
	ext *vecExt
}

// vecExt is the extension tier: a summary word over up to InlineNodes-1
// leaf words (group 0 is the inline lo word and has no leaf here).
type vecExt struct {
	sum  uint64
	leaf [InlineNodes - 1]uint64
}

// VecOf builds a vector containing the given nodes.
func VecOf(nodes ...NodeID) ReaderVec {
	var v ReaderVec
	for _, n := range nodes {
		v = v.With(n)
	}
	return v
}

// VecFromLow reconstructs a vector from its inline word. It is the inverse
// of LowWord for vectors with no member ≥ InlineNodes.
func VecFromLow(w uint64) ReaderVec { return ReaderVec{lo: w} }

// LowWord returns the inline word (nodes 0..InlineNodes-1). It panics if
// the vector has members beyond the inline tier: callers use it to pack a
// narrow-machine vector into one uint64, and a wide member would be
// silently dropped.
func (v ReaderVec) LowWord() uint64 {
	if v.ext != nil {
		panic("mem: LowWord on vector with members >= InlineNodes")
	}
	return v.lo
}

// With returns the vector with node n added. Out-of-range nodes panic:
// silently dropping a node would corrupt a sharer set.
func (v ReaderVec) With(n NodeID) ReaderVec {
	if n < InlineNodes {
		v.lo |= 1 << n
		return v
	}
	if n >= MaxNodes {
		panic(fmt.Sprintf("mem: node %d out of range", n))
	}
	g, b := uint(n)/InlineNodes, uint(n)%InlineNodes
	if v.ext != nil && v.ext.leaf[g-1]&(1<<b) != 0 {
		return v
	}
	e := &vecExt{}
	if v.ext != nil {
		*e = *v.ext
	}
	e.leaf[g-1] |= 1 << b
	e.sum |= 1 << g
	v.ext = e
	return v
}

// Without returns the vector with node n removed. Out-of-range nodes
// (including NoNode) are a safe no-op. Removing a member ≥ InlineNodes
// clones the extension; iterate with Next, not by draining a copy.
func (v ReaderVec) Without(n NodeID) ReaderVec {
	if n < InlineNodes {
		v.lo &^= 1 << n
		return v
	}
	if n >= MaxNodes || v.ext == nil {
		return v
	}
	g, b := uint(n)/InlineNodes, uint(n)%InlineNodes
	if v.ext.leaf[g-1]&(1<<b) == 0 {
		return v
	}
	e := *v.ext
	e.leaf[g-1] &^= 1 << b
	if e.leaf[g-1] == 0 {
		e.sum &^= 1 << g
	}
	if e.sum == 0 {
		v.ext = nil
	} else {
		v.ext = &e
	}
	return v
}

// Has reports whether node n is in the vector. Out-of-range nodes report
// false.
func (v ReaderVec) Has(n NodeID) bool {
	if n < InlineNodes {
		return v.lo&(1<<n) != 0
	}
	if n >= MaxNodes || v.ext == nil {
		return false
	}
	return v.ext.leaf[n/InlineNodes-1]&(1<<(n%InlineNodes)) != 0
}

// Empty reports whether no nodes are set.
func (v ReaderVec) Empty() bool { return v.lo == 0 && v.ext == nil }

// Equal reports set equality. Invariant 1 makes this structural: a nil
// extension on one side with a non-nil on the other cannot hide equal
// contents.
func (v ReaderVec) Equal(o ReaderVec) bool {
	if v.lo != o.lo {
		return false
	}
	if v.ext == o.ext {
		return true
	}
	if v.ext == nil || o.ext == nil {
		return false
	}
	return *v.ext == *o.ext
}

// Count returns the number of nodes in the vector.
func (v ReaderVec) Count() int {
	c := bits.OnesCount64(v.lo)
	if v.ext != nil {
		for s := v.ext.sum; s != 0; s &= s - 1 {
			c += bits.OnesCount64(v.ext.leaf[bits.TrailingZeros64(s)-1])
		}
	}
	return c
}

// Next returns the smallest member ≥ n, or MaxNodes if there is none. It
// is the allocation-free iteration idiom at any width:
//
//	for n := v.Next(0); n < MaxNodes; n = v.Next(n + 1) { ... }
func (v ReaderVec) Next(n NodeID) NodeID {
	if n < InlineNodes {
		if w := v.lo & (^uint64(0) << n); w != 0 {
			return NodeID(bits.TrailingZeros64(w))
		}
		n = InlineNodes
	}
	if v.ext == nil || n >= MaxNodes {
		return MaxNodes
	}
	g, b := uint(n)/InlineNodes, uint(n)%InlineNodes
	if w := v.ext.leaf[g-1] & (^uint64(0) << b); w != 0 {
		return NodeID(g*InlineNodes + uint(bits.TrailingZeros64(w)))
	}
	s := v.ext.sum & (^uint64(0) << (g + 1))
	if s == 0 {
		return MaxNodes
	}
	g = uint(bits.TrailingZeros64(s))
	return NodeID(g*InlineNodes + uint(bits.TrailingZeros64(v.ext.leaf[g-1])))
}

// Union returns the set union v ∪ o. When only one side has an extension
// it is shared, not copied (safe under copy-on-write).
func (v ReaderVec) Union(o ReaderVec) ReaderVec {
	v.lo |= o.lo
	if o.ext == nil || v.ext == o.ext {
		return v
	}
	if v.ext == nil {
		v.ext = o.ext
		return v
	}
	e := *v.ext
	e.sum |= o.ext.sum
	for s := o.ext.sum; s != 0; s &= s - 1 {
		g := bits.TrailingZeros64(s)
		e.leaf[g-1] |= o.ext.leaf[g-1]
	}
	v.ext = &e
	return v
}

// AndNot returns the set difference v \ o.
func (v ReaderVec) AndNot(o ReaderVec) ReaderVec {
	v.lo &^= o.lo
	if v.ext == nil || o.ext == nil {
		return v
	}
	if v.ext == o.ext {
		v.ext = nil
		return v
	}
	e := vecExt{}
	for s := v.ext.sum; s != 0; s &= s - 1 {
		g := bits.TrailingZeros64(s)
		if w := v.ext.leaf[g-1] &^ o.ext.leaf[g-1]; w != 0 {
			e.leaf[g-1] = w
			e.sum |= 1 << uint(g)
		}
	}
	if e.sum == 0 {
		v.ext = nil
	} else {
		v.ext = &e
	}
	return v
}

// Hash returns a deterministic content hash (equal vectors hash equally
// regardless of extension sharing). Used by the predictor's vector
// interner.
func (v ReaderVec) Hash() uint64 {
	h := (v.lo ^ 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h ^= h >> 29
	if v.ext != nil {
		for s := v.ext.sum; s != 0; s &= s - 1 {
			g := bits.TrailingZeros64(s)
			h = (h ^ uint64(g) ^ v.ext.leaf[g-1]) * 0x94d049bb133111eb
			h ^= h >> 32
		}
	}
	h = (h ^ h>>31) * 0xff51afd7ed558ccd
	h ^= h >> 31
	return h
}

// Nodes returns the member nodes in ascending order.
func (v ReaderVec) Nodes() []NodeID {
	out := make([]NodeID, 0, v.Count())
	for n := v.Next(0); n < MaxNodes; n = v.Next(n + 1) {
		out = append(out, n)
	}
	return out
}

// String renders "{0,3,7}".
func (v ReaderVec) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for n := v.Next(0); n < MaxNodes; n = v.Next(n + 1) {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", n)
	}
	b.WriteByte('}')
	return b.String()
}
