package protocol

import (
	"fmt"
	"testing"

	"specdsm/internal/mem"
)

// The coherence checker is always on in production runs, so a test that
// only ever asserts an empty Violations() list cannot tell a working
// checker from a silent one. These mutation tests corrupt one directory
// entry's version counter mid-run — the kind of bug the checker exists to
// catch — and pin the exact finding text.

// checkerAddr is the block every mutation test uses: homed at node 2 of a
// 3-node system, so nodes 0 and 1 both reach it over the network.
var checkerAddr = mem.MakeAddr(2, 0)

// setDirVersion overwrites the home directory's version for addr.
func setDirVersion(sys *System, addr mem.BlockAddr, v uint64) {
	d := sys.nodes[addr.Home()].dir
	ei, ok := d.lookupIdx(addr)
	if !ok {
		panic(fmt.Sprintf("no directory entry for %v", addr))
	}
	d.hot[ei].version = v
}

// staleReadSequence makes node 1 observe version 1, then rolls the
// directory back to version 0 and lets node 1 read again: the grant
// carries data older than what node 1 has already seen.
func staleReadSequence(h *harness) {
	h.write(1, checkerAddr) // grant v1 to node 1
	h.read(0, checkerAddr)  // recall: node 1 drops, node 0 shares v1
	setDirVersion(h.sys, checkerAddr, 0)
	h.read(1, checkerAddr) // node 1 receives v0 after observing v1
}

// skippedGrantSequence makes the next exclusive grant skip a version:
// the directory is at version 1 with node 0 sharing, is bumped to 2
// behind the checker's back, and node 1's write then grants version 3.
func skippedGrantSequence(h *harness) {
	h.write(1, checkerAddr) // grant v1
	h.read(0, checkerAddr)  // node 0 shares v1
	setDirVersion(h.sys, checkerAddr, 2)
	h.write(1, checkerAddr) // invalidate node 0, grant v3
}

func assertViolations(t *testing.T, sys *System, want ...string) {
	t.Helper()
	got := sys.Violations()
	if len(got) != len(want) {
		t.Fatalf("violations = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("violation %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCheckerFiresOnStaleObservation(t *testing.T) {
	h := newHarness(t, 3)
	staleReadSequence(h)
	assertViolations(t, h.sys,
		fmt.Sprintf("node %d observed version %d after %d for %v", 1, 0, 1, checkerAddr))
}

func TestCheckerFiresOnSkippedGrant(t *testing.T) {
	h := newHarness(t, 3)
	skippedGrantSequence(h)
	assertViolations(t, h.sys,
		fmt.Sprintf("version grant %d follows %d for %v", 3, 1, checkerAddr))
}

// TestCheckerDisabledStaysSilent: SetCoherenceChecking(false) suppresses
// both findings.
func TestCheckerDisabledStaysSilent(t *testing.T) {
	h := newHarness(t, 3)
	h.sys.SetCoherenceChecking(false)
	staleReadSequence(h)
	skippedGrantSequence(h)
	assertViolations(t, h.sys)
}

// TestCheckerForgetsHistoryOnReset replays each mutation after a Reset of
// a system that first ran a legal history up to a higher version. The
// checker must report exactly the fresh run's finding: a remembered
// version from before the Reset would add "observed ... after 3" and
// "grant 1 follows 3" findings on the replay's legal prefix.
func TestCheckerForgetsHistoryOnReset(t *testing.T) {
	for _, tc := range []struct {
		name string
		seq  func(*harness)
		want string
	}{
		{"stale", staleReadSequence,
			fmt.Sprintf("node %d observed version %d after %d for %v", 1, 0, 1, checkerAddr)},
		{"skip", skippedGrantSequence,
			fmt.Sprintf("version grant %d follows %d for %v", 3, 1, checkerAddr)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 3)
			// Legal history: versions 1..3, observed by nodes 0 and 1.
			h.write(1, checkerAddr)
			h.write(0, checkerAddr)
			h.write(1, checkerAddr)
			h.read(0, checkerAddr)
			h.finish()
			h.k.Reset()
			h.sys.Reset()
			tc.seq(h)
			assertViolations(t, h.sys, tc.want)

			// A second reset-and-replay reports the same single finding.
			h.k.Run(0)
			h.k.Reset()
			h.sys.Reset()
			tc.seq(h)
			assertViolations(t, h.sys, tc.want)
		})
	}
}
