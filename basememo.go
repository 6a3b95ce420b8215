package specdsm

import "sync"

// baseKey is everything the predictor and speculation jobs feed a
// Base-DSM machine; mode and the other machine options are fixed by the
// two job functions.
type baseKey struct {
	app           string
	wp            WorkloadParams
	disableChecks bool
}

// baseMemo holds Base-DSM runs the predictor study simulated, for the
// speculation study's Base leg. Passive observers never influence the
// protocol, so apart from Predictors the two runs are equal
// (TestObserversLeaveBaseRunUnchanged). Like the workload generation
// cache it is dropped whole at baseMemoCap entries; a miss simulates.
var baseMemo = struct {
	sync.Mutex
	m    map[baseKey]RunResult
	hits int // served lookups; read by tests
}{m: make(map[baseKey]RunResult)}

const baseMemoCap = 64

// rememberBase stores a copy of r without its predictor measurements:
// what a plain Base run of the same machine returns.
func rememberBase(k baseKey, r *RunResult) {
	c := *r
	c.Predictors = nil
	baseMemo.Lock()
	defer baseMemo.Unlock()
	if len(baseMemo.m) >= baseMemoCap {
		clear(baseMemo.m)
	}
	baseMemo.m[k] = c
}

// recallBase returns a fresh copy of the run stored for k, if any.
func recallBase(k baseKey) (*RunResult, bool) {
	baseMemo.Lock()
	defer baseMemo.Unlock()
	r, ok := baseMemo.m[k]
	if ok {
		baseMemo.hits++
	}
	return &r, ok
}
