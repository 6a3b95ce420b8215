package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by the
// nearest-rank rule: the smallest sample with at least a q share of the
// samples at or below it. At q = 0.9 over n >= 100 samples, at least
// ten samples lie beyond the value returned. Zero for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// jobPercentile estimates the q-quantile of job times as the mean of
// the samples whose ranks lie within 5% of n of the nearest rank. Job
// times cluster by application and mode, and a nearest-rank percentile
// that falls between two clusters jumps across the gap when noise moves
// a few jobs over it; the local mean moves by a fraction of the gap
// instead. On evenly spread samples it equals the nearest-rank value.
func jobPercentile(xs []float64, q float64) float64 {
	n := len(xs)
	half := n / 20
	if half == 0 {
		return percentile(xs, q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
	lo, hi := max(rank-half, 1), min(rank+half, n)
	return sum(s[lo-1:hi]) / float64(hi-lo+1)
}

// span is one traced interval, in nanoseconds since the run started.
// Parent is the index of the enclosing span in the log, -1 for none;
// Job is the job index within the enclosing study call, -1 for none.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A
// nil *spanLog records nothing, which is how untraced phases run.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog(t0 time.Time) *spanLog { return &spanLog{t0: t0} }

// add records a span and returns its index, or -1 on a nil log.
func (l *spanLog) add(name string, start, end time.Time, parent, job int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name, start.Sub(l.t0).Nanoseconds(), end.Sub(l.t0).Nanoseconds(), parent, job})
	return len(l.spans) - 1
}

// finish sets the end of a span added before it ended.
func (l *spanLog) finish(i int, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].End = end.Sub(l.t0).Nanoseconds()
}

// write stores the spans as one JSON object per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
