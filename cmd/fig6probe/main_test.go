package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// checkGolden compares one probe run with a golden file, line by line.
// The golden files were captured from the synchronous drain loop the
// lone session replaced, so a diff here means simulated time moved.
func checkGolden(t *testing.T, golden string, side int, mode string) {
	t.Helper()
	var got bytes.Buffer
	if err := probe(&got, side, mode); err != nil {
		t.Fatal(err)
	}
	if *update {
		if mode == "" {
			if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("mode %q: %d lines, %s has %d", mode, len(gotLines), golden, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("mode %q line %d:\n got %s\nwant %s", mode, i+1, gotLines[i], wantLines[i])
		}
	}
}

// TestProbeSmall pins the 64³ Fig-6 values of both execution modes to
// one golden file: the lone session and the single-shard scatter-gather
// session must both reproduce it byte for byte.
func TestProbeSmall(t *testing.T) {
	for _, mode := range []string{"", "shard"} {
		checkGolden(t, "testdata/small.golden", 64, mode)
	}
}

// TestProbeFull pins the paper-scale (259³) Fig-6 values (about a
// second).
func TestProbeFull(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale probe: about a second plain, more under -race")
	}
	checkGolden(t, "testdata/full.golden", 259, "")
}
