package main

// Committed output goldens: paperrepro's stdout for a few small
// invocations is stored under testdata/ with the wall-clock lines
// masked, and every run must reproduce it byte for byte at -parallel 1
// and -parallel 2. A failure means the reproduced numbers (or their
// rendering) moved. When that is intended, regenerate with
//
//	go test ./cmd/paperrepro -run '^TestGolden$' -update
//
// and commit the new files alongside the change that moved them.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/ goldens from this build's output")

// goldens maps each testdata/ file to the paperrepro flags it records.
var goldens = []struct {
	file string
	args []string
}{
	{"scale0.1.golden", []string{"-scale", "0.1"}},
	{"rtl.golden", []string{"-scale", "0.1", "-only", "rtl"}},
	{"seeds.golden", []string{"-scale", "0.1", "-seeds", "1,2"}},
	{"scaling.golden", []string{"-scale", "0.1", "-only", "scaling", "-apps", "em3d,tomcatv"}},
}

func TestGolden(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.file, func(t *testing.T) {
			path := filepath.Join("testdata", g.file)
			for _, parallel := range []string{"1", "2"} {
				got := runGolden(t, append(append([]string{}, g.args...), "-parallel", parallel))
				if *update && parallel == "1" {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create it)", err)
				}
				if got != string(want) {
					t.Fatalf("-parallel %s: output differs from %s:\n%s", parallel, path, firstDiff(string(want), got))
				}
			}
		})
	}
}

// runGolden runs paperrepro in-process and returns its masked stdout.
func runGolden(t *testing.T, args []string) string {
	t.Helper()
	o, err := parseOptions(args, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatalf("paperrepro %v: %v", args, err)
	}
	return normalize(out.Bytes())
}

// firstDiff reports the first differing line of two outputs.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(wl), len(gl))
}
