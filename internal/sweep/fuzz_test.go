package sweep_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"specdsm/internal/sweep"
)

// FuzzCheckpointFrames feeds arbitrary bytes to the checkpoint decoder
// as a file on disk and checks the two resume paths against each other:
// neither may panic, strict success implies salvage agrees frame for
// frame, and a key mismatch is a verdict both paths must share.
func FuzzCheckpointFrames(f *testing.F) {
	const key = "fuzz-study|n=8"
	// Seed with a real two-row checkpoint plus degenerate shapes, so
	// mutation starts from structurally meaningful bytes.
	seedDir := f.TempDir()
	seedPath := filepath.Join(seedDir, "seed.ckpt")
	ck, err := sweep.OpenCheckpoint(nil, seedPath, key, 1)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := sweep.AppendRow(ck, map[string]int{"row": i}); err != nil {
			f.Fatal(err)
		}
	}
	if err := ck.Flush(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte("SPDSMCKP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		strict, strictErr := sweep.ResumeCheckpoint(nil, path, key, 100)

		// Salvage must never panic and only hard-fails on a readable
		// header with a foreign key.
		salvaged, rep, salvageErr := sweep.SalvageCheckpoint(nil, path, key, 100)
		if salvageErr != nil {
			if strictErr == nil {
				t.Fatalf("strict resume accepted what salvage rejected: %v", salvageErr)
			}
			return
		}
		if strictErr == nil && strict.Rows() != salvaged.Rows() {
			t.Fatalf("strict sees %d frames, salvage kept %d", strict.Rows(), salvaged.Rows())
		}
		if strictErr == nil && rep.DroppedBytes != 0 {
			t.Fatalf("file passed strict validation but salvage dropped %d bytes", rep.DroppedBytes)
		}
		// The salvaged prefix must replay cleanly end to end (decode
		// failures surface as errors, never panics), and the rewritten
		// file must now satisfy the strict path.
		replayErr := sweep.Run(context.Background(), sweep.New(1), sweep.Job[struct{}, map[string]int]{
			N: 8, Checkpoint: salvaged,
			Fn: func(_ context.Context, _ struct{}, i int) (map[string]int, error) {
				return map[string]int{"row": i}, nil
			},
			Emit: func(i int, v map[string]int) error { return nil },
		})
		_ = replayErr // may fail (e.g. valid CRC, alien gob) — it just must not panic
		if _, err := sweep.ResumeCheckpoint(nil, path, key, 100); err != nil {
			t.Fatalf("strict resume rejects a salvage-rewritten file: %v", err)
		}
	})
}
