package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"
)

// rowHasher folds study rows into a SHA-256 digest. Every field of every
// row is hashed, reached by reflection so that a statistic added to
// RunResult or PredictorResult later is covered without editing the
// benchmark. Map entries are hashed in the order of their encoded keys,
// and a nil slice hashes like an empty one, so a row that crossed the
// shard wire (gob drops empty slices) hashes like the same row built
// in-process.
type rowHasher struct {
	h hash.Hash
}

func newRowHasher() *rowHasher { return &rowHasher{h: sha256.New()} }

// add hashes one row.
func (r *rowHasher) add(row any) { writeValue(r.h, reflect.ValueOf(row)) }

// sum returns the digest of every row added so far, as hex.
func (r *rowHasher) sum() string { return fmt.Sprintf("%x", r.h.Sum(nil)) }

type byteWriter interface {
	Write(p []byte) (int, error)
}

func writeUint(w byteWriter, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

func writeValue(w byteWriter, v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		writeUint(w, 0)
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			writeUint(w, 0)
			return
		}
		writeUint(w, 1)
		writeValue(w, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			writeValue(w, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		writeUint(w, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			writeValue(w, v.Index(i))
		}
	case reflect.Map:
		type entry struct{ k, v []byte }
		entries := make([]entry, 0, v.Len())
		it := v.MapRange()
		for it.Next() {
			var kb, vb bytes.Buffer
			writeValue(&kb, it.Key())
			writeValue(&vb, it.Value())
			entries = append(entries, entry{kb.Bytes(), vb.Bytes()})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].k, entries[j].k) < 0 })
		writeUint(w, uint64(len(entries)))
		for _, e := range entries {
			w.Write(e.k)
			w.Write(e.v)
		}
	case reflect.String:
		writeUint(w, uint64(v.Len()))
		w.Write([]byte(v.String()))
	case reflect.Bool:
		if v.Bool() {
			writeUint(w, 1)
		} else {
			writeUint(w, 0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		writeUint(w, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		writeUint(w, v.Uint())
	case reflect.Float32, reflect.Float64:
		writeUint(w, math.Float64bits(v.Float()))
	default:
		panic(fmt.Sprintf("perfbench: cannot digest a %s", v.Type()))
	}
}
