// Package protocol implements the full-map write-invalidate coherence
// protocol of the simulated CC-NUMA (paper §2), together with the
// speculation mechanisms of the speculative coherent DSM (§4).
//
// Every node hosts three cooperating controllers:
//
//   - a cache controller holding the processor's view of memory (a merged
//     model of the processor data cache and the node's remote cache — the
//     paper assumes a remote cache large enough to hold all remote data, so
//     only cold and coherence misses exist);
//   - a directory controlling the node's home blocks: per-block state
//     (Idle/Shared/Exclusive), a full-map sharer vector, an owner, and a
//     FIFO queue of requests that arrive while a transaction is in flight
//     (the blocking directory is one of the two race sources that perturb
//     message predictors; network-interface queueing is the other);
//   - optionally, a predictor (internal/core) observing the directory's
//     incoming message stream and driving read speculation via the
//     First-Read (FR) and Speculative Write-Invalidation (SWI) triggers.
//
// A directory feeds its incoming messages to three kinds of consumer,
// and names the block to its predictors by the entry's dense index (a
// core.BlockID), never by address. The active predictor (Options.Active)
// is called online, before the directory acts on each message, because
// speculation consults it mid-run. The trace hook (System.SetTrace) is
// also called online, with the processing cycle, so a recorder sees the
// live clock and the machine-wide order. The passive observers
// (Options.Observers) never influence the protocol, so they are fed in
// batches: the directory appends each message to a fixed-capacity log of
// 8-byte records (entry index, message type, source node; ObserverLogLen
// records, allocated once) and, when the log fills and at
// System.FlushObservations, replays it predictor-major — all records
// through one observer, then all through the next. The replay passes the
// record's entry index, so it reads nothing else of the entry. Each
// observer sees exactly its old message sequence, while its tables stay
// cache-hot across the whole log. Reset drops records a failed run left
// unreplayed.
//
// The speculation machinery never modifies base protocol transitions: it
// only schedules existing operations early (an early recall, an early
// read-only forward). Speculative data that races with a real request is
// dropped at the receiver, exactly as the paper specifies, so a failed
// speculation degrades to the base protocol.
//
// # Storage layout and allocation discipline
//
// The protocol layer is on the critical path of every simulated access, so
// its steady state allocates nothing (enforced by the alloc-guard tests in
// alloc_test.go) and its per-block state is laid out structure-of-arrays:
//
//   - Each directory splits per-block state into two parallel slices,
//     dirHot and dirCold, sharing one index space; each cache does the
//     same with lineHot and lineCold. The hot record carries only what
//     the serve/hit paths read on every access (state, version, sharer
//     vector, owner, a flag byte); everything touched off the fast path —
//     the block address, wait queues, SWI watch bookkeeping, speculative
//     pending lists — lives in the cold record, so a fast-path access
//     pulls a fraction of a cache line instead of the whole entry.
//   - The hot flag byte mirrors cold-state emptiness (dfHasWait,
//     dfHasSpec, dfSWIWatch, ...): the fast path decides "is there
//     deferred work?" from the hot record alone and only dereferences
//     the cold slice when a flag says there is something to find. Any
//     code that empties a cold field must clear the mirroring flag.
//   - Both slices are indexed through mem.BlockMap (first touch goes
//     through BlockMap.Reserve, a single-probe get-or-insert). Indices
//     are stable for the lifetime of the table — growth appends, Reset
//     truncates — so deferred events and kernel callbacks reference
//     entries by int32 index, never by pointer, and a *dirHot/*lineHot
//     taken inside one handler must not be held across anything that can
//     create a new entry.
//   - Directory transactions, grant events, completion callbacks, and
//     delayed sends all ride pooled carriers (sim.FreeList) whose kernel
//     closures are bound once per object.
//   - Transient per-block state (the outstanding miss, the
//     eviction-writeback marker, speculative-copy tracking) is folded into
//     the cold record and retired by clearing its hot flag, so no map
//     insert or delete happens after a block's first touch.
//   - The coherence checker's state lives in these records too: each
//     node's last observed version in lineHot, the latest grant in the
//     home's dirCold, so checking is a field compare and Reset clears it.
//   - Sharer sets are walked in place with mem.ReaderVec.Next and never
//     mutated per target or per ack: above 64 nodes every mutation clones
//     the vector's 512-byte extension.
package protocol
