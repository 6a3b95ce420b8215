// Package machine assembles the full simulated CC-NUMA: in-order
// processors executing per-node programs of memory accesses, compute
// delays, and synchronization, on top of the coherence protocol
// (internal/protocol), with predictors (internal/core) attached at every
// directory.
//
// The machine produces the measurements behind every experiment in the
// paper: execution-time breakdowns (Figure 9), request/speculation counts
// (Table 5), and — through passively attached predictors — accuracy,
// coverage, and storage occupancy (Figures 7-8, Tables 3-4).
//
// # Machine pool
//
// Building a machine is the expensive part of a study cell: per-node
// predictors, protocol tables, and processors all have to be allocated
// before the first cycle runs. Machine.Reset re-arms a machine that has
// completed a run — kernel clock, network, protocol state, predictors,
// barriers, locks — to its just-constructed state while retaining every
// table, dense slice, queue, and event pool, and is observably
// equivalent to building fresh (pinned by the reset-equivalence tests).
// Run packages that into one process-wide pool of idle machines keyed
// by configuration shape: a run takes an idle machine for its Config (or
// builds one), resets it, runs, and gives it back on success, so every
// sweep worker, shard connection, and public run in the process pays
// construction once per distinct configuration. Network timing is not
// part of a machine's identity — Run reconfigures the interconnect in
// place (ReconfigureNetwork), so a latency sweep like RTLSweepStream
// shares machines across all its sweep points. A machine belongs to one
// run at a time; a run that errors or panics drops its machine, and the
// idle set is dropped whole when it would exceed a fixed bound.
package machine
