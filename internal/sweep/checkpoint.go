package sweep

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strings"

	"specdsm/internal/fault"
)

// Checkpoint file format (version 2). A checkpoint persists the ordered
// prefix of jobs a streaming sweep has already settled — emitted rows
// and, in keep-going mode, recorded failures — so an interrupted sweep
// resumes by replaying the saved prefix and running only the remaining
// job indices. Because emission is strictly in index order, "which jobs
// are settled" is exactly "the first Rows() jobs" — at most one merge
// window of out-of-order work is lost on a crash.
//
// Layout (all integers little-endian):
//
//	magic      [8]byte  "SPDSMCKP"
//	version    uint32   2
//	keyLen     uint32
//	key        [keyLen]byte   study identity (name + config + job count)
//	count      uint64   number of frames in the payload
//	payloadLen uint64   payload size in bytes
//	payloadCRC uint32   CRC-32 (IEEE) of the whole payload
//	payload    count frames, each:
//	    len      uint32   payload byte count
//	    kind     uint8    0 = row (gob-encoded row), 1 = failure (gob string)
//	    frameCRC uint32   CRC-32 (IEEE) of len+kind+payload
//	    payload  [len]byte
//
// Version 2 adds the per-frame kind and CRC. The kind lets a failure
// (keep-going mode) occupy its index's slot in the prefix, so resume
// semantics are unchanged by partial failure; the per-frame CRC lets
// SalvageCheckpoint find the longest valid prefix of a damaged file
// instead of rejecting it whole, which the single whole-payload CRC
// cannot do.
//
// Every flush rewrites the whole snapshot to a temp file in the same
// directory and renames it over the old one, so a crash at any moment
// leaves either the previous complete snapshot or the new complete
// snapshot — never a torn file. Frames pending in memory between
// flushes are bounded by Every, and the rewrite streams the old payload
// from disk, so checkpoint memory does not scale with the sweep size.
const (
	ckptMagic   = "SPDSMCKP"
	ckptVersion = 2
)

// Frame kinds.
const (
	frameRow  = 0 // gob-encoded result row
	frameFail = 1 // gob-encoded error string (keep-going mode)
)

// frameOverhead is the per-frame byte cost beyond the payload:
// len (4) + kind (1) + frameCRC (4).
const frameOverhead = 9

// DefaultCheckpointEvery is the flush cadence used when Every is zero:
// the snapshot is rewritten after this many newly settled frames.
const DefaultCheckpointEvery = 16

// Sentinel errors for checkpoint validation. All are wrapped with the
// file path and a human-readable cause.
var (
	// ErrCheckpointExists reports that OpenCheckpoint found a previous
	// checkpoint file; the caller must either resume from it or remove it
	// — a fresh sweep never silently clobbers saved work.
	ErrCheckpointExists = errors.New("checkpoint file already exists (resume, or remove it to start over)")
	// ErrCheckpointCorrupt reports a structurally invalid checkpoint:
	// bad magic, a truncated header or payload, or a CRC mismatch.
	ErrCheckpointCorrupt = errors.New("corrupt checkpoint file")
	// ErrCheckpointMismatch reports a well-formed checkpoint that does
	// not belong to this sweep: wrong version, wrong study key, or more
	// saved rows than the sweep has jobs.
	ErrCheckpointMismatch = errors.New("checkpoint does not match this sweep")
)

// KeyMismatchError is the specific ErrCheckpointMismatch for a
// well-formed checkpoint recorded under a different study key: the file
// is readable, it just belongs to a different configuration. Stored and
// Want hold the two keys; Diff explains which fields differ.
type KeyMismatchError struct {
	Path   string
	Stored string // key recorded in the file
	Want   string // key of the current sweep
}

func (e *KeyMismatchError) Error() string {
	return fmt.Sprintf("sweep: checkpoint %s: %v: recorded for a different study/config:\n  file: %s\n  want: %s",
		e.Path, ErrCheckpointMismatch, e.Stored, e.Want)
}

// Is makes the error satisfy errors.Is(err, ErrCheckpointMismatch).
func (e *KeyMismatchError) Is(target error) bool { return target == ErrCheckpointMismatch }

// Diff compares the two keys field by field (fields are the
// "|"-separated "name=value" segments study keys are built from) and
// returns one line per difference, of the form
// "name: checkpoint has X, this run has Y". Fields missing on one side
// are reported as "(absent)". A structurally alien key yields a single
// whole-key line.
func (e *KeyMismatchError) Diff() []string {
	stored := keyFields(e.Stored)
	want := keyFields(e.Want)
	if stored == nil || want == nil {
		return []string{fmt.Sprintf("key: checkpoint has %q, this run has %q", e.Stored, e.Want)}
	}
	names := make(map[string]bool, len(stored)+len(want))
	for k := range stored {
		names[k] = true
	}
	for k := range want {
		names[k] = true
	}
	ordered := make([]string, 0, len(names))
	for k := range names {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	var diff []string
	for _, k := range ordered {
		s, sok := stored[k]
		w, wok := want[k]
		if sok && wok && s == w {
			continue
		}
		if !sok {
			s = "(absent)"
		}
		if !wok {
			w = "(absent)"
		}
		diff = append(diff, fmt.Sprintf("%s: checkpoint has %s, this run has %s", k, s, w))
	}
	return diff
}

// keyFields splits a study key into its name=value fields, keyed by
// name. The leading study-name segment (no '=') is filed under "study".
// Returns nil if the key has no recognizable structure.
func keyFields(key string) map[string]string {
	if key == "" {
		return nil
	}
	fields := make(map[string]string)
	for i, seg := range strings.Split(key, "|") {
		if name, val, ok := strings.Cut(seg, "="); ok {
			fields[name] = val
		} else if i == 0 {
			fields["study"] = seg
		} else {
			return nil
		}
	}
	return fields
}

// SalvageReport describes what SalvageCheckpoint recovered. Reason is
// empty when the file was fully valid (or absent) and nothing was
// dropped.
type SalvageReport struct {
	// Rows is the length of the valid prefix adopted (same as
	// Checkpoint.Rows()).
	Rows int
	// DroppedBytes counts payload bytes discarded after the valid
	// prefix.
	DroppedBytes int64
	// Reason describes the first defect found, empty if none.
	Reason string
}

// Checkpoint persists the settled-prefix of one streaming sweep.
// Create one with OpenCheckpoint (fresh), ResumeCheckpoint (continue,
// strict), or SalvageCheckpoint (continue, tolerating a damaged tail);
// pass it to Run as Job.Checkpoint, and frames are replayed, appended,
// and flushed automatically. A Checkpoint is used from the
// merge goroutine only and is not safe for concurrent use.
type Checkpoint struct {
	fsys  fault.FS
	path  string
	key   string
	every int

	rows    int    // frames persisted in the on-disk snapshot
	payload int64  // payload bytes in the on-disk snapshot
	crc     uint32 // running CRC-32 of the on-disk payload

	pend     bytes.Buffer // serialized frames not yet flushed
	pendRows int
}

// OpenCheckpoint starts a fresh checkpoint at path for the study
// identified by key, flushing every `every` frames (0 selects
// DefaultCheckpointEvery). An existing file at path is an error
// (ErrCheckpointExists): starting over must be an explicit choice. The
// empty initial snapshot is written immediately, so an unwritable path
// fails before any simulation work is spent.
//
// fsys is the filesystem seam every checkpoint constructor takes (nil
// selects the real filesystem); fault-injection tests pass a fault.FS
// that tears checkpoint writes.
func OpenCheckpoint(fsys fault.FS, path, key string, every int) (*Checkpoint, error) {
	ck := newCheckpoint(fsys, path, key, every)
	if _, err := ck.fsys.Lstat(path); err == nil {
		return nil, fmt.Errorf("sweep: checkpoint %s: %w", path, ErrCheckpointExists)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("sweep: checkpoint %s: %w", path, err)
	}
	if err := ck.Flush(); err != nil {
		return nil, err
	}
	return ck, nil
}

// ResumeCheckpoint continues from the checkpoint at path. A missing file
// starts fresh (so the same resume-enabled command line works both
// before and after an interruption); an existing file is fully
// validated — magic, version, study key, frame structure, per-frame and
// whole-payload CRCs — and any defect is reported as a descriptive
// error rather than silently recomputing or panicking downstream. For a
// damaged file whose valid prefix is still worth resuming from, use
// SalvageCheckpoint instead.
func ResumeCheckpoint(fsys fault.FS, path, key string, every int) (*Checkpoint, error) {
	ck := newCheckpoint(fsys, path, key, every)
	f, err := ck.fsys.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return OpenCheckpoint(fsys, path, key, every)
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: checkpoint %s: %w", path, err)
	}
	defer f.Close()
	if err := ck.load(f); err != nil {
		return nil, err
	}
	return ck, nil
}

// SalvageCheckpoint continues from the checkpoint at path, recovering
// the longest valid frame prefix of a damaged file instead of rejecting
// it. The salvage policy:
//
//   - missing file: start fresh (like ResumeCheckpoint);
//   - unreadable header or wrong format version: nothing is trustable —
//     salvage to an empty checkpoint and re-run from job 0;
//   - readable header with a different study key: hard error
//     (*KeyMismatchError) — the file belongs to a different study, and
//     "salvaging" it would silently mix configurations;
//   - valid header: scan frames, stop at the first truncated frame, bad
//     kind, or frame-CRC mismatch, adopt everything before it, and
//     rewrite the snapshot so the damage is gone from disk. The
//     header's own count/length/CRC promises are ignored — after a torn
//     flush they describe a file that no longer exists.
func SalvageCheckpoint(fsys fault.FS, path, key string, every int) (*Checkpoint, SalvageReport, error) {
	ck := newCheckpoint(fsys, path, key, every)
	f, err := ck.fsys.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		ck, err := OpenCheckpoint(fsys, path, key, every)
		return ck, SalvageReport{}, err
	}
	if err != nil {
		return nil, SalvageReport{}, fmt.Errorf("sweep: checkpoint %s: %w", path, err)
	}
	rep, err := ck.salvage(f)
	f.Close()
	if err != nil {
		return nil, SalvageReport{}, err
	}
	// Rewrite the snapshot: Flush copies forward exactly the adopted
	// payload prefix under a fresh, truthful header, so the damaged tail
	// is physically gone and a later strict resume succeeds.
	if err := ck.Flush(); err != nil {
		return nil, SalvageReport{}, err
	}
	return ck, rep, nil
}

func newCheckpoint(fsys fault.FS, path, key string, every int) *Checkpoint {
	if fsys == nil {
		fsys = fault.OS
	}
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	return &Checkpoint{fsys: fsys, path: path, key: key, every: every, crc: 0}
}

// Rows returns how many frames the on-disk snapshot holds (the resume
// point: jobs [0, Rows()) will be replayed, not re-run). A nil
// checkpoint holds none.
func (ck *Checkpoint) Rows() int {
	if ck == nil {
		return 0
	}
	return ck.rows
}

// Path returns the checkpoint file path.
func (ck *Checkpoint) Path() string { return ck.path }

func (ck *Checkpoint) corrupt(format string, args ...any) error {
	return fmt.Errorf("sweep: checkpoint %s: %w: %s", ck.path, ErrCheckpointCorrupt, fmt.Sprintf(format, args...))
}

func (ck *Checkpoint) mismatch(format string, args ...any) error {
	return fmt.Errorf("sweep: checkpoint %s: %w: %s", ck.path, ErrCheckpointMismatch, fmt.Sprintf(format, args...))
}

// header is the decoded fixed part of a checkpoint file.
type ckptHeader struct {
	key        string
	count      uint64
	payloadLen uint64
	payloadCRC uint32
}

func (ck *Checkpoint) headerLen() int {
	return 8 + 4 + 4 + len(ck.key) + 8 + 8 + 4
}

func writeHeader(w io.Writer, key string, count, payloadLen uint64, crc uint32) error {
	var b bytes.Buffer
	b.WriteString(ckptMagic)
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(v uint32) { binary.LittleEndian.PutUint32(u32[:], v); b.Write(u32[:]) }
	put64 := func(v uint64) { binary.LittleEndian.PutUint64(u64[:], v); b.Write(u64[:]) }
	put32(ckptVersion)
	put32(uint32(len(key)))
	b.WriteString(key)
	put64(count)
	put64(payloadLen)
	put32(crc)
	_, err := w.Write(b.Bytes())
	return err
}

// readHeader parses and structurally validates the header. Key
// mismatches are left to the caller, which knows the expected value.
func (ck *Checkpoint) readHeader(r io.Reader) (ckptHeader, error) {
	var h ckptHeader
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return h, ck.corrupt("file shorter than the %d-byte magic", len(magic))
	}
	if string(magic[:]) != ckptMagic {
		return h, ck.corrupt("bad magic %q (not a sweep checkpoint file)", magic[:])
	}
	var u32 [4]byte
	var u64 [8]byte
	read32 := func(what string) (uint32, error) {
		if _, err := io.ReadFull(r, u32[:]); err != nil {
			return 0, ck.corrupt("truncated header: missing %s", what)
		}
		return binary.LittleEndian.Uint32(u32[:]), nil
	}
	read64 := func(what string) (uint64, error) {
		if _, err := io.ReadFull(r, u64[:]); err != nil {
			return 0, ck.corrupt("truncated header: missing %s", what)
		}
		return binary.LittleEndian.Uint64(u64[:]), nil
	}
	version, err := read32("version")
	if err != nil {
		return h, err
	}
	if version != ckptVersion {
		return h, ck.mismatch("format version %d, this build reads version %d", version, ckptVersion)
	}
	keyLen, err := read32("key length")
	if err != nil {
		return h, err
	}
	const maxKeyLen = 1 << 20
	if keyLen > maxKeyLen {
		return h, ck.corrupt("implausible key length %d", keyLen)
	}
	keyBuf := make([]byte, keyLen)
	if _, err := io.ReadFull(r, keyBuf); err != nil {
		return h, ck.corrupt("truncated header: key cut short")
	}
	h.key = string(keyBuf)
	if h.count, err = read64("frame count"); err != nil {
		return h, err
	}
	if h.payloadLen, err = read64("payload length"); err != nil {
		return h, err
	}
	if h.payloadCRC, err = read32("payload CRC"); err != nil {
		return h, err
	}
	return h, nil
}

// maxFrameLen bounds a single frame's payload. Real rows are small
// gobs; the bound keeps a corrupted length field from demanding a
// multi-gigabyte allocation before the CRC check can reject the frame.
const maxFrameLen = 1 << 24

// readFrame reads and verifies one frame: length, kind, per-frame CRC,
// payload. It returns io.EOF cleanly at end of input before any frame
// bytes; any other defect is an error describing it.
func readFrame(r io.Reader, crc *uint32) (kind byte, payload []byte, err error) {
	var hdr [frameOverhead]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("frame header cut short")
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, fmt.Errorf("frame header cut short")
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	kind = hdr[4]
	frameCRC := binary.LittleEndian.Uint32(hdr[5:9])
	if kind != frameRow && kind != frameFail {
		return 0, nil, fmt.Errorf("unknown frame kind %d", kind)
	}
	if length > maxFrameLen {
		return 0, nil, fmt.Errorf("implausible frame length %d", length)
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("frame payload cut short (%d bytes promised)", length)
	}
	sum := crc32.Update(0, crc32.IEEETable, hdr[0:5])
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	if sum != frameCRC {
		return 0, nil, fmt.Errorf("frame CRC mismatch (file %08x, computed %08x)", frameCRC, sum)
	}
	if crc != nil {
		*crc = crc32.Update(*crc, crc32.IEEETable, hdr[:])
		*crc = crc32.Update(*crc, crc32.IEEETable, payload)
	}
	return kind, payload, nil
}

// appendFrame serializes one frame into the pending buffer.
func (ck *Checkpoint) appendFrame(kind byte, payload []byte) {
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	hdr[4] = kind
	sum := crc32.Update(0, crc32.IEEETable, hdr[0:5])
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[5:9], sum)
	ck.pend.Write(hdr[:])
	ck.pend.Write(payload)
	ck.pendRows++
}

// load validates an existing checkpoint file and adopts its state.
func (ck *Checkpoint) load(f fault.ReadFile) error {
	h, err := ck.readHeader(f)
	if err != nil {
		return err
	}
	if h.key != ck.key {
		return &KeyMismatchError{Path: ck.path, Stored: h.key, Want: ck.key}
	}
	// Walk the payload frames, verifying each frame plus the byte
	// length, frame count, and CRC the header promises.
	var (
		crc      uint32
		frames   uint64
		lr       = io.LimitReader(f, int64(h.payloadLen))
		consumed = &countingReader{r: lr}
	)
	for {
		_, _, err := readFrame(consumed, &crc)
		if err == io.EOF {
			break
		}
		if err != nil {
			return ck.corrupt("frame %d: %v", frames, err)
		}
		frames++
	}
	if consumed.n != int64(h.payloadLen) {
		return ck.corrupt("truncated payload: %d of %d bytes present", consumed.n, h.payloadLen)
	}
	if frames != h.count {
		return ck.corrupt("header promises %d frames, payload holds %d", h.count, frames)
	}
	if crc != h.payloadCRC {
		return ck.corrupt("payload CRC mismatch (file %08x, computed %08x)", h.payloadCRC, crc)
	}
	if extra, err := io.CopyN(io.Discard, f, 1); err == nil && extra > 0 {
		return ck.corrupt("trailing data after the payload")
	}
	ck.rows = int(h.count)
	ck.payload = int64(h.payloadLen)
	ck.crc = crc
	return nil
}

// salvage scans the file for the longest valid frame prefix and adopts
// it, returning a report of what was dropped. The header's
// count/length/CRC fields are ignored: after a torn flush they promise
// bytes that are no longer there.
func (ck *Checkpoint) salvage(f fault.ReadFile) (SalvageReport, error) {
	var rep SalvageReport
	h, err := ck.readHeader(f)
	if err != nil {
		// Unreadable header or wrong version: nothing in the file can be
		// trusted (frame boundaries depend on the key length). Restart.
		ck.rows, ck.payload, ck.crc = 0, 0, 0
		if n, serr := io.Copy(io.Discard, f); serr == nil {
			rep.DroppedBytes = n
		}
		rep.Reason = fmt.Sprintf("unreadable header (%v); restarting from job 0", err)
		return rep, nil
	}
	if h.key != ck.key {
		return rep, &KeyMismatchError{Path: ck.path, Stored: h.key, Want: ck.key}
	}
	var (
		crc      uint32
		valid    int64
		validCRC uint32
		frames   int
		counted  = &countingReader{r: f}
	)
	for {
		kind, _, err := readFrame(counted, &crc)
		if err == io.EOF {
			break
		}
		if err != nil {
			rep.Reason = fmt.Sprintf("frame %d: %v; keeping the %d-frame prefix", frames, err, frames)
			break
		}
		_ = kind
		valid = counted.n
		validCRC = crc
		frames++
	}
	rep.DroppedBytes = counted.n - valid
	if rep.Reason == "" && rep.DroppedBytes > 0 {
		rep.Reason = fmt.Sprintf("%d trailing bytes beyond the last whole frame", rep.DroppedBytes)
	}
	ck.rows = frames
	ck.payload = valid
	ck.crc = validCRC
	rep.Rows = frames
	return rep, nil
}

// countingReader counts bytes consumed from r.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// AppendRow serializes one completed row into the pending buffer,
// flushing the snapshot when the cadence is reached. Frames must be
// appended in emission (index) order.
func AppendRow[T any](ck *Checkpoint, v T) error {
	var rec bytes.Buffer
	if err := gob.NewEncoder(&rec).Encode(&v); err != nil {
		return fmt.Errorf("sweep: checkpoint %s: encode row %d: %w", ck.path, ck.rows+ck.pendRows, err)
	}
	ck.appendFrame(frameRow, rec.Bytes())
	if ck.pendRows >= ck.every {
		return ck.Flush()
	}
	return nil
}

// AppendFail records a fatal job failure as the frame for its index, so
// a keep-going sweep's settled prefix advances past failed jobs and a
// resume neither re-runs nor forgets them. Only the error text is
// persisted.
func (ck *Checkpoint) AppendFail(err error) error {
	var rec bytes.Buffer
	if gerr := gob.NewEncoder(&rec).Encode(err.Error()); gerr != nil {
		return fmt.Errorf("sweep: checkpoint %s: encode failure %d: %w", ck.path, ck.rows+ck.pendRows, gerr)
	}
	ck.appendFrame(frameFail, rec.Bytes())
	if ck.pendRows >= ck.every {
		return ck.Flush()
	}
	return nil
}

// Flush rewrites the snapshot to include every pending frame: a temp
// file in the same directory receives the new header, the old payload
// (streamed from the previous snapshot), and the pending frames, is
// synced, and atomically renamed over the old file.
func (ck *Checkpoint) Flush() error {
	newCount := uint64(ck.rows + ck.pendRows)
	newLen := uint64(ck.payload) + uint64(ck.pend.Len())
	newCRC := crc32.Update(ck.crc, crc32.IEEETable, ck.pend.Bytes())

	tmp := ck.path + ".tmp"
	f, err := ck.fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("sweep: checkpoint %s: %w", ck.path, err)
	}
	fail := func(err error) error {
		f.Close()
		ck.fsys.Remove(tmp)
		return fmt.Errorf("sweep: checkpoint %s: %w", ck.path, err)
	}
	if err := writeHeader(f, ck.key, newCount, newLen, newCRC); err != nil {
		return fail(err)
	}
	if ck.payload > 0 {
		old, err := ck.fsys.Open(ck.path)
		if err != nil {
			return fail(err)
		}
		if _, err := old.Seek(int64(ck.headerLen()), io.SeekStart); err != nil {
			old.Close()
			return fail(err)
		}
		if _, err := io.CopyN(f, old, ck.payload); err != nil {
			old.Close()
			return fail(err)
		}
		old.Close()
	}
	if _, err := f.Write(ck.pend.Bytes()); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		ck.fsys.Remove(tmp)
		return fmt.Errorf("sweep: checkpoint %s: %w", ck.path, err)
	}
	if err := ck.fsys.Rename(tmp, ck.path); err != nil {
		ck.fsys.Remove(tmp)
		return fmt.Errorf("sweep: checkpoint %s: %w", ck.path, err)
	}
	ck.rows = int(newCount)
	ck.payload = int64(newLen)
	ck.crc = newCRC
	ck.pend.Reset()
	ck.pendRows = 0
	return nil
}

// recordedError is a failure replayed from a checkpoint: only the
// original error's text survived serialization.
type recordedError string

func (e recordedError) Error() string { return string(e) }

// replay decodes the saved frames in order and hands each row to emit
// and each recorded failure to fail (carrying the persisted error
// text), with its original job index. With a nil fail, a failure frame
// aborts the replay: the file was written by a keep-going sweep.
func replay[T any](ck *Checkpoint, emit func(i int, v T) error, fail FailFunc) error {
	if ck.rows == 0 {
		return nil
	}
	f, err := ck.fsys.Open(ck.path)
	if err != nil {
		return fmt.Errorf("sweep: checkpoint %s: %w", ck.path, err)
	}
	defer f.Close()
	if _, err := f.Seek(int64(ck.headerLen()), io.SeekStart); err != nil {
		return fmt.Errorf("sweep: checkpoint %s: %w", ck.path, err)
	}
	for i := 0; i < ck.rows; i++ {
		kind, payload, err := readFrame(f, nil)
		if err != nil {
			return ck.corrupt("replay: frame %d: %v", i, err)
		}
		switch kind {
		case frameRow:
			var v T
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&v); err != nil {
				return ck.corrupt("replay: row %d does not decode: %v", i, err)
			}
			if err := emit(i, v); err != nil {
				return err
			}
		case frameFail:
			var msg string
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&msg); err != nil {
				return ck.corrupt("replay: failure %d does not decode: %v", i, err)
			}
			if fail == nil {
				return fmt.Errorf("sweep: checkpoint %s: job %d is a recorded failure (%s); resume with keep-going enabled or start over", ck.path, i, msg)
			}
			if err := fail(i, recordedError(msg)); err != nil {
				return err
			}
		}
	}
	return nil
}
