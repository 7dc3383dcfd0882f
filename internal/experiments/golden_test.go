package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's results")

// TestFigureGoldens pins every paper artifact, on both paper drives, to
// its file in testdata: at paper scale (Seed 3, Runs 3), or on the 64³
// grid under -short (<id>.short.golden). A file holds fmt.Sprint of the
// driver's result map — fmt sorts the keys and prints each float at
// shortest round-trip precision — or, for the artifacts without one,
// the table text. fig1a, fig1b, eq5 and space do not depend on scale,
// so their two files are the same bytes; keeping both spares the test a
// per-id rule. A diff means a simulated value moved; re-capture with
// -update, with and without -short, only in a change that says its
// simulated numbers move.
func TestFigureGoldens(t *testing.T) {
	cfg, suffix := Config{Scale: 1, Runs: 3, Seed: 3}, ""
	if testing.Short() {
		cfg.Scale, suffix = 0.25, ".short" // the 64³ grid
	}
	for _, e := range paper {
		t.Run(e.id, func(t *testing.T) {
			t.Parallel()
			tb, res, err := e.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := tb.String()
			if res != nil {
				got = fmt.Sprintln(res)
			}
			path := filepath.Join("testdata", e.id+suffix+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s: simulated values moved:\n%s", path, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff names the first whitespace-separated field where got and
// want part, after the fields before it that locate it in the map.
func firstDiff(got, want string) string {
	g, w := strings.Fields(got), strings.Fields(want)
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	field := func(f []string) string {
		if i < len(f) {
			return f[i]
		}
		return "(end)"
	}
	return fmt.Sprintf("after %q\n got %s\nwant %s",
		strings.Join(g[max(0, i-6):i], " "), field(g), field(w))
}
