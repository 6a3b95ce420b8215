// Package core implements the paper's primary contribution: pattern-based
// coherence predictors attached to a DSM directory.
//
// Three predictors are provided, all built on one two-level (PAp-derived)
// engine:
//
//   - Cosmos — the general message predictor of Mukherjee & Hill (ISCA '98),
//     reproduced here as the baseline. It observes and predicts every
//     incoming coherence message at the directory, including invalidation
//     acknowledgements and writebacks.
//   - MSP — the paper's Memory Sharing Predictor (§3). It observes and
//     predicts only memory request messages (read, write, upgrade),
//     eliminating acknowledgement-induced perturbation of the pattern
//     tables.
//   - VMSP — the Vector MSP (§3.1). Like MSP, but a sequence of reads
//     between writes is folded into a single reader bit-vector symbol,
//     eliminating read re-ordering effects.
//
// The package also provides the speculation-facing surface used by the
// speculative coherent DSM (§4): predicted upcoming reader sets with
// verification feedback (pruning mispredicted readers), the Speculative
// Write-Invalidation premature bit, and the per-node early-write-invalidate
// table.
//
// Four storage invariants keep Observe allocation-free and mostly
// hash-free in steady state while leaving every observable result
// bit-identical to the original string-keyed implementation (see the
// commentary on patKey in twolevel.go for the full argument):
//
//   - Pattern histories are packed into a fixed-size comparable patKey (a
//     bijection of the symbol sequence), maintained incrementally per
//     block, so table lookups never build heap keys.
//   - All pattern entries of a predictor live in one entryStore, laid out
//     structure-of-arrays: parallel slices for the pattern key, the
//     16-byte hot record (the packed prediction — tn holds
//     Type|Node<<symTypeBits, vec the reader vector's inline word or, on
//     machines wider than mem.InlineNodes, its id in the store's vector
//     interner, together a bijection of the Symbol it replaces, validity
//     tn&symTypeMask != 0 — plus the successor link and the
//     confidence/SWI meta byte). The scoring loop reads only the hot
//     array — it never drags the key array into cache.
//     Lookup goes through patTable, an open-addressed pattern-key index
//     whose tagged probes reject mismatches on one byte and confirm on
//     the key in entryStore.keys.
//   - Entries and per-block records are addressed by stable int32 index
//     (growth appends, Reset bumps a generation and truncates); handles
//     (SWIGuard, ReadPrediction) carry the store generation so anything
//     captured before a Reset degrades to a no-op instead of corrupting
//     reused storage.
//   - Blocks are named by a BlockID that the caller assigns: a dense
//     index, one per distinct address, fixed until Reset. A directory
//     passes its entry index for the block and trace replay passes the
//     block's first-seen index, so the predictor indexes its per-block
//     records directly and never hashes an address. Within one run ids
//     are a bijection of addresses, so the tables hold the same
//     (block, history) → prediction pairs whatever the assignment; ids
//     may have gaps (a directory entry that only an SWI hint created),
//     so Census counts blocks on first tracked touch.
//
// Successor links make most observations skip the pattern table. Each
// entry records in succ the entry for its own history with its current
// prediction pushed, and each block caches in cur the entry for its
// current history. An observation that continues the predicted pattern
// moves cur along the link; only when the link is unknown does the
// block look its history up (one probe: patTable.reserve gets or inserts
// the entry) and set the link of the entry it advanced past. A link is
// only a cache of a lookup result, and stays exact because the
// (block, history) → entry map is insert-only: an entry's index never
// changes until Reset, and any change to an entry's prediction — setPred
// with a different symbol, clearPred, Prune's vector edit — resets its
// link, since the successor history changed with it.
package core
