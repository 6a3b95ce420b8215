package mem

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"unsafe"
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
//   - ext, when non-nil, holds nodes InlineNodes..MaxNodes-1 as a packed
//     two-level bitmap: sum bit g is set exactly when node group g (nodes
//     [64g, 64g+64)) has a member, and only those groups have a leaf
//     word, stored in ascending group order right after sum in the same
//     allocation. Group g's word is leaf number popcount(sum & (1<<g - 1)),
//     so a set with members in k groups costs 8(k+1) bytes whatever the
//     machine size, and scans skip empty groups by construction.
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
//  3. Every leaf word is non-zero, ext != nil ⟹ sum != 0, and sum bit 0
//     is never set (group 0 is lo). The leaf count is popcount(sum).
//
// ReaderVec is deliberately non-comparable (== would compare extension
// pointers, not contents); use Equal.
type ReaderVec struct {
	_   [0]func() // non-comparable: force Equal instead of ==
	lo  uint64
	ext *vecExt
}

// vecExt is the header of the extension tier. Its popcount(sum) leaf
// words follow it in the same pointer-free allocation (see newExt): Go
// has no safe variable-length struct, and a slice field would add a
// 24-byte header and a pointer for the collector to trace to every
// clone. The length is never stored, so it cannot disagree with sum.
type vecExt struct {
	// sum is fixed when the extension is allocated: it sizes the object,
	// so only the leaf words of a fresh extension are ever written.
	sum uint64
}

// newExt allocates a zero-leaved extension with summary sum (non-zero).
func newExt(sum uint64) *vecExt {
	buf := make([]uint64, 1+bits.OnesCount64(sum))
	buf[0] = sum
	return (*vecExt)(unsafe.Pointer(&buf[0]))
}

// leaves returns the packed leaf words, in ascending group order: the
// rest of newExt's allocation. The slice aliases the extension, so only
// a fresh, not yet shared extension may be written through it.
func (e *vecExt) leaves() []uint64 {
	first := (*uint64)(unsafe.Add(unsafe.Pointer(e), unsafe.Sizeof(*e)))
	return unsafe.Slice(first, bits.OnesCount64(e.sum))
}

// leaf returns group g's word, 0 for an empty group or a nil extension.
func (e *vecExt) leaf(g uint) uint64 {
	if e == nil || e.sum&(1<<g) == 0 {
		return 0
	}
	return e.leaves()[bits.OnesCount64(e.sum&(1<<g-1))]
}

// withLeaf returns a copy of e (nil for the empty extension) with group
// g's word replaced by w, pruning the group when w is 0 and the whole
// extension when no group is left.
func (e *vecExt) withLeaf(g uint, w uint64) *vecExt {
	var sum uint64
	var old []uint64
	if e != nil {
		sum, old = e.sum, e.leaves()
	}
	i := bits.OnesCount64(sum & (1<<g - 1))
	rest := i
	if sum&(1<<g) != 0 {
		rest++
	}
	if w == 0 {
		sum &^= 1 << g
	} else {
		sum |= 1 << g
	}
	if sum == 0 {
		return nil
	}
	n := newExt(sum)
	out := n.leaves()
	copy(out, old[:i])
	if w != 0 {
		out[i] = w
		i++
	}
	copy(out[i:], old[rest:])
	return n
}

// merge ORs x's leaf words into e's, whose summary covers x's.
func (e *vecExt) merge(x *vecExt) {
	out, s := e.leaves(), x.sum
	for _, w := range x.leaves() {
		out[bits.OnesCount64(e.sum&(s&-s-1))] |= w
		s &= s - 1
	}
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
	g, bit := uint(n)/InlineNodes, uint64(1)<<(n%InlineNodes)
	if w := v.ext.leaf(g); w&bit == 0 {
		v.ext = v.ext.withLeaf(g, w|bit)
	}
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
	if n >= MaxNodes {
		return v
	}
	g, bit := uint(n)/InlineNodes, uint64(1)<<(n%InlineNodes)
	if w := v.ext.leaf(g); w&bit != 0 {
		v.ext = v.ext.withLeaf(g, w&^bit)
	}
	return v
}

// Has reports whether node n is in the vector. Out-of-range nodes report
// false.
func (v ReaderVec) Has(n NodeID) bool {
	if n < InlineNodes {
		return v.lo&(1<<n) != 0
	}
	if n >= MaxNodes {
		return false
	}
	return v.ext.leaf(uint(n)/InlineNodes)&(1<<(n%InlineNodes)) != 0
}

// Empty reports whether no nodes are set.
func (v ReaderVec) Empty() bool { return v.lo == 0 && v.ext == nil }

// Equal reports set equality. Invariants 1 and 3 make this structural: a
// nil extension on one side with a non-nil on the other cannot hide equal
// contents, and equal summaries mean equally long leaf lists.
func (v ReaderVec) Equal(o ReaderVec) bool {
	if v.lo != o.lo {
		return false
	}
	if v.ext == o.ext {
		return true
	}
	if v.ext == nil || o.ext == nil || v.ext.sum != o.ext.sum {
		return false
	}
	return slices.Equal(v.ext.leaves(), o.ext.leaves())
}

// Count returns the number of nodes in the vector.
func (v ReaderVec) Count() int {
	c := bits.OnesCount64(v.lo)
	if v.ext != nil {
		for _, w := range v.ext.leaves() {
			c += bits.OnesCount64(w)
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
	if w := v.ext.leaf(g) & (^uint64(0) << b); w != 0 {
		return NodeID(g*InlineNodes + uint(bits.TrailingZeros64(w)))
	}
	s := v.ext.sum & (^uint64(0) << (g + 1))
	if s == 0 {
		return MaxNodes
	}
	g = uint(bits.TrailingZeros64(s))
	return NodeID(g*InlineNodes + uint(bits.TrailingZeros64(v.ext.leaf(g))))
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
	e := newExt(v.ext.sum | o.ext.sum)
	e.merge(v.ext)
	e.merge(o.ext)
	v.ext = e
	return v
}

// AndNot returns the set difference v \ o. When o removes no member of
// v's extension, the extension is shared, not copied.
func (v ReaderVec) AndNot(o ReaderVec) ReaderVec {
	v.lo &^= o.lo
	if v.ext == nil || o.ext == nil {
		return v
	}
	if v.ext == o.ext {
		v.ext = nil
		return v
	}
	// Difference into a stack buffer first: the surviving groups, and so
	// the allocation's size, are known only at the end.
	var buf [InlineNodes - 1]uint64
	var sum uint64
	n, changed := 0, false
	aw, bw := v.ext.leaves(), o.ext.leaves()
	for k, s := 0, v.ext.sum; s != 0; k, s = k+1, s&(s-1) {
		g := s & -s
		w := aw[k]
		if o.ext.sum&g != 0 {
			m := bw[bits.OnesCount64(o.ext.sum&(g-1))]
			changed = changed || w&m != 0
			w &^= m
		}
		if w != 0 {
			buf[n] = w
			n++
			sum |= g
		}
	}
	switch {
	case !changed:
	case sum == 0:
		v.ext = nil
	default:
		e := newExt(sum)
		copy(e.leaves(), buf[:n])
		v.ext = e
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
		leaves := v.ext.leaves()
		for k, s := 0, v.ext.sum; s != 0; k, s = k+1, s&(s-1) {
			h = (h ^ uint64(bits.TrailingZeros64(s)) ^ leaves[k]) * 0x94d049bb133111eb
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
