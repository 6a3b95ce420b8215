package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the profiles runtime/pprof writes (gzip-compressed
// protocol buffers, the format `go tool pprof` reads) and buckets their
// samples by layer. Only the fields the buckets need are decoded.

// profile is a decoded pprof profile: one stack and value vector per
// sample.
type profile struct {
	// types names each value column, e.g. "cpu/nanoseconds" or
	// "alloc_space/bytes".
	types   []string
	samples []sample
}

// sample is one profile sample: its stack as function names, leaf
// first (inlined frames expanded), and one value per column.
type sample struct {
	stack  []string
	values []int64
}

// column returns the index of the named value column.
func (p *profile) column(name string) (int, error) {
	for i, t := range p.types {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("perfbench: profile has no %q column (have %v)", name, p.types)
}

// parseProfile decodes a gzip-compressed pprof profile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	var (
		strs      []string
		typeIdx   [][2]int64
		rawSample []struct{ locs, vals []uint64 }
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]int64{}    // function id -> string index
	)
	err = eachField(raw, func(f field) error {
		switch f.num {
		case 1: // sample_type
			var t [2]int64
			err := eachField(f.bytes, func(g field) error {
				if g.num == 1 || g.num == 2 {
					t[g.num-1] = int64(g.varint)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case 2: // sample
			var s struct{ locs, vals []uint64 }
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case 1:
					s.locs = g.appendVarints(s.locs)
				case 2:
					s.vals = g.appendVarints(s.vals)
				}
				return nil
			})
			rawSample = append(rawSample, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case 1:
					id = g.varint
				case 4: // line
					return eachField(g.bytes, func(l field) error {
						if l.num == 1 {
							fns = append(fns, l.varint)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case 1:
					id = g.varint
				case 2:
					name = int64(g.varint)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.types = append(p.types, str(t[0])+"/"+str(t[1]))
	}
	for _, rs := range rawSample {
		s := sample{values: make([]int64, len(rs.vals))}
		for i, v := range rs.vals {
			s.values[i] = int64(v)
		}
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// field is one decoded protocol-buffer field.
type field struct {
	num    uint64
	wire   uint64
	varint uint64
	bytes  []byte
}

// appendVarints appends a repeated integer field, packed or not.
func (f field) appendVarints(dst []uint64) []uint64 {
	if f.wire == 0 {
		return append(dst, f.varint)
	}
	for b := f.bytes; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("perfbench: truncated profile")

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, -1
}

// eachField calls fn for every top-level field of a protocol-buffer
// message.
func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := field{num: key >> 3, wire: key & 7}
		switch f.wire {
		case 0:
			f.varint, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("perfbench: profile field %d has wire type %d", f.num, f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// Layers, named after the repository's modules. Every sample lands in
// exactly one, so a profile's layer shares sum to 1.
var layers = []string{"sim", "network", "protocol", "core", "mem", "machine", "workload", "sweep", "remote", "runtime", "other"}

// layerOfPackage maps each package of the specdsm module to its layer.
// The root package's study drivers and job glue count as sweep, except
// its remote dispatch code (see layerOf).
var layerOfPackage = map[string]string{
	"specdsm":                   "sweep",
	"specdsm/internal/analytic": "other",
	"specdsm/internal/core":     "core",
	"specdsm/internal/fault":    "sweep",
	"specdsm/internal/machine":  "machine",
	"specdsm/internal/mem":      "mem",
	"specdsm/internal/network":  "network",
	"specdsm/internal/protocol": "protocol",
	"specdsm/internal/remote":   "remote",
	"specdsm/internal/report":   "other",
	"specdsm/internal/sim":      "sim",
	"specdsm/internal/sweep":    "sweep",
	"specdsm/internal/trace":    "core",
	"specdsm/internal/workload": "workload",
}

// remoteFuncs are the root package's shard-dispatch functions (remote.go):
// their own time and the gob and network calls they make are remote
// dispatch, not study assembly.
var remoteFuncs = []string{"specdsm.NewRemoteRunner", "specdsm.runnerFor", "specdsm.streamRemote", "specdsm.remoteSpec"}

// packageOf returns the import path of the package a profiled function
// name belongs to, e.g. "specdsm/internal/sweep" for
// "specdsm/internal/sweep.(*Checkpoint).Flush".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may themselves contain paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

// deciding returns the frame a sample is attributed to: the innermost
// one in this module or in the benchmark itself, so that the
// standard-library and runtime work a layer calls (map lookups,
// allocation, gob encoding, syscalls) counts as that layer's own. It
// returns "" for a sample with no such frame.
func deciding(stack []string) string {
	for _, fn := range stack {
		if pkg := packageOf(fn); pkg == "main" || pkg == "specdsm" || strings.HasPrefix(pkg, "specdsm/") {
			return fn
		}
	}
	return ""
}

// layerOf attributes a sample to a layer by its deciding frame. Samples
// without one are the Go runtime's own work (GC workers, the scheduler)
// when a runtime frame is present, and other otherwise; the benchmark's
// own code and any module package missing from layerOfPackage also
// count as other.
func layerOf(stack []string) string {
	fn := deciding(stack)
	if fn == "" {
		for _, f := range stack {
			if packageOf(f) == "runtime" {
				return "runtime"
			}
		}
		return "other"
	}
	pkg := packageOf(fn)
	if pkg == "specdsm" {
		for _, r := range remoteFuncs {
			if strings.HasPrefix(fn, r) {
				return "remote"
			}
		}
	}
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	return "other"
}

// byLayer sums one value column of a profile per layer.
func (p *profile) byLayer(col int) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		out[layerOf(s.stack)] += s.values[col]
	}
	return out
}

// sumWhere sums one value column over the samples whose stack satisfies
// keep.
func (p *profile) sumWhere(col int, keep func(stack []string) bool) int64 {
	var n int64
	for _, s := range p.samples {
		if keep(s.stack) {
			n += s.values[col]
		}
	}
	return n
}

func sumValues(by map[string]int64) int64 {
	var n int64
	for _, v := range by {
		n += v
	}
	return n
}

// fractions turns per-layer totals into shares of their sum, with an
// entry for every layer.
func fractions(by map[string]int64) map[string]float64 {
	total := sumValues(by)
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = float64(by[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
