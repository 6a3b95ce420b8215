// Package mem defines the fundamental identifiers shared by every layer of
// the simulated distributed shared memory machine: node identifiers, block
// addresses, request kinds, and reader bit-vectors.
//
// The package is deliberately tiny and dependency-free; both the coherence
// protocol (internal/protocol) and the predictors (internal/core) build on
// it without depending on each other.
//
// Key invariants:
//
//   - A BlockAddr embeds its home node in its top bits, so home lookup is
//     a shift, not a table walk, at every layer.
//   - ReaderVec is a two-tier reader set. The inline tier is one machine
//     word covering nodes 0..63 (InlineNodes), so at the paper's machine
//     sizes set algebra on sharer lists and VMSP read-run symbols stays
//     branch-free bit arithmetic on a single uint64 and mutation never
//     allocates. Beyond that a hierarchical extension covers up to
//     MaxNodes = 4096 nodes: a summary word whose bit g marks group g
//     (nodes 64g..64g+63) as occupied, followed by one leaf word per
//     occupied group only. The extension is sized to the groups in use —
//     8 bytes per occupied group plus the summary, whatever the machine
//     size — and Count/Next/iteration never visit an empty group.
//   - The extension obeys three structural invariants that make values
//     canonical: ext is nil if and only if no member ≥ InlineNodes exists
//     (mutators prune on the way down), every leaf word is non-zero (so
//     the summary alone fixes the leaf count and positions), and summary
//     bit 0 is never set (group 0 is the inline word). Canonical form
//     means set equality is structural — Equal compares the inline word,
//     the summary, and as many leaf words as the summary has bits.
//   - The extension is copy-on-write: mutators clone it before writing,
//     so ReaderVec values can be freely copied, shared, and stored in
//     history tables like the plain word they replaced. Wide-set mutation,
//     Without included, pays one allocation sized to the result (AndNot
//     that removes no wide member pays none); iteration uses Next, which
//     reads in place and never allocates. The narrow tier's
//     zero-allocation guarantee and the wide tier's bytes per clone are
//     enforced by allocation-counting tests.
//   - BlockMap is the canonical block-keyed lookup structure for per-block
//     state kept inline in dense slices (the directory's entries, the
//     cache's lines): an insert-only open-addressed table mapping
//     BlockAddr to a stable int32 index, with clear-but-retain Reset. It
//     is the block-addressed analogue of internal/core's entryStore index
//     scheme and exists for the same reason — steady-state protocol
//     operation must not allocate.
package mem
