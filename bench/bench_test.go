package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// testConfig runs tiny rounds on a 32³ grid: about fifty ops per lane
// per round, two timed rounds, no time budget to fill.
func testConfig(t *testing.T, seed int64) config {
	return config{
		seed: seed, side: 32, scale: 1, seconds: 0.001, minRounds: 2,
		opsEachOverride: 50, traceOut: t.TempDir(),
	}
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []endToEndMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func (m manifest) endToEndNames() []manifestMetric {
	var out []manifestMetric
	for _, e := range m.EndToEnd {
		out = append(out, manifestMetric{Name: e.Name, Unit: e.Unit})
	}
	return out
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkEmitted requires got to hold exactly the manifest's metrics,
// each once, each with the manifest's unit.
func checkEmitted(t *testing.T, where string, want []manifestMetric, got []value) {
	t.Helper()
	seen := map[string]int{}
	units := map[string]string{}
	for _, v := range got {
		seen[v.Name]++
		units[v.Name] = v.Unit
		if !metricName.MatchString(v.Name) {
			t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", where, v.Name)
		}
		if v.Unit == "" {
			t.Errorf("%s: metric %s has no unit", where, v.Name)
		}
	}
	for _, m := range want {
		if seen[m.Name] != 1 {
			t.Errorf("%s: metric %s emitted %d times, want once", where, m.Name, seen[m.Name])
		}
		if units[m.Name] != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", where, m.Name, units[m.Name], m.Unit)
		}
		delete(seen, m.Name)
	}
	for name := range seen {
		t.Errorf("%s: metric %s is not in BENCHMARK.json", where, name)
	}
}

// TestWorkloadsEmitEveryMetric runs all four workloads and their traced
// pass small and checks the reports against BENCHMARK.json: workload
// names, every metric once with its unit, no failed op, and a span tree
// that nests with non-negative self times.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(m.Workloads), len(specs))
	}
	ctx := context.Background()
	for i, sp := range specs {
		if m.Workloads[i].Name != sp.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, m.Workloads[i].Name, sp.name)
		}
		t.Run(sp.name, func(t *testing.T) {
			cfg := testConfig(t, 3)
			rep, err := runWorkload(ctx, sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("untraced: %d of %d ops failed: %v", rep.Failed, rep.Attempted, rep.Violations)
			}
			checkEmitted(t, "untraced", m.endToEndNames(), rep.EndToEnd)
			for _, v := range rep.EndToEnd {
				// A 32³ grid fits the cache whole: after the warm-up
				// serve_cached simulates no I/O at all.
				cachedSim := sp.name == "serve_cached" && v.Unit == "sim_ms"
				if v.Median <= 0 && !cachedSim {
					t.Errorf("end-to-end metric %s is %v, want positive", v.Name, v.Median)
				}
			}

			rep, err = runTraced(ctx, sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 {
				t.Errorf("traced: %d ops failed: %v", rep.Failed, rep.Violations)
			}
			checkEmitted(t, "traced", m.PerLayer, rep.PerLayer)

			data, err := os.ReadFile(rep.SpanFile)
			if err != nil {
				t.Fatal(err)
			}
			var sf spanFile
			if err := json.Unmarshal(data, &sf); err != nil {
				t.Fatal(err)
			}
			if sf.Workload != sp.name || len(sf.Spans) == 0 {
				t.Fatalf("span file holds %d spans of workload %q", len(sf.Spans), sf.Workload)
			}
			if err := checkNesting(sf.Spans); err != nil {
				t.Error(err)
			}
			names := map[string]bool{}
			for id, self := range selfTimes(sf.Spans) {
				if self < 0 {
					t.Errorf("span %d has negative self time %d", id, self)
				}
			}
			for _, s := range sf.Spans {
				names[s.Name] = true
			}
			want := []string{"op", "chunk", "drill", "mapping.box", "query.plan", "engine.runplan", "disk.serve"}
			if sp.name == "wire_stream" {
				want = append(want, "client.request", "server.handler", "server.first_flush", "server.encode")
			}
			if sp.shards > 1 {
				want = append(want, "shard.split")
			}
			for _, name := range want {
				if !names[name] {
					t.Errorf("no %s span recorded", name)
				}
			}
		})
	}
}

// TestManifestMatches checks what the benchmark repeats from files it
// cannot read at run time or must agree with: the end-to-end metrics
// with their bounds, and the golden file's conditions, which must be
// those of `-seed 1` at the default size or the golden gate never runs.
func TestManifestMatches(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.EndToEnd, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end is\n%+v\nthe benchmark's table is\n%+v", m.EndToEnd, endToEndMetrics)
	}
	var g goldenFile
	if err := json.Unmarshal(embeddedGolden, &g); err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig(1)
	sp, _ := findSpec("fig6_layouts")
	if g.Seed != cfg.seed || g.Side != cfg.side || g.OpsEach != cfg.opsEach(sp) {
		t.Errorf("golden.json is for seed %d, side %d, %d ops per layout; `-seed 1` runs seed %d, side %d, %d ops",
			g.Seed, g.Side, g.OpsEach, cfg.seed, cfg.side, cfg.opsEach(sp))
	}
	if len(g.Layouts) != len(layouts()) {
		t.Errorf("golden.json holds %d layouts, want %d", len(g.Layouts), len(layouts()))
	}
}

// TestSameSeedSameLoad checks that the seed alone decides the load:
// byte-identical op lists, and on fig6_layouts — one client, nothing
// left to timing — identical simulated metrics.
func TestSameSeedSameLoad(t *testing.T) {
	g := grid{dims: cubeDims(32), writeCells: [][]int{{0, 0, 0}, {1, 0, 0}, {16, 1, 0}}}
	for _, m := range []mix{readMix, layoutMix, writeMix} {
		a, b := formatOps(genOps(7, 1, 200, m, g)), formatOps(genOps(7, 1, 200, m, g))
		if a != b {
			t.Errorf("mix %v: the same seed produced different op lists", m)
		}
		if other := formatOps(genOps(8, 1, 200, m, g)); other == a {
			t.Errorf("mix %v: seeds 7 and 8 produced the same op list", m)
		}
	}

	sp, _ := findSpec("fig6_layouts")
	var runs [2]map[string]float64
	for i := range runs {
		rep, err := runWorkload(context.Background(), sp, testConfig(t, 5))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = map[string]float64{}
		for _, v := range rep.EndToEnd {
			runs[i][v.Name] = v.Median
		}
	}
	for _, name := range []string{"sim_ms_per_op", "sim_ms_per_cell"} {
		if runs[0][name] != runs[1][name] || runs[0][name] == 0 {
			t.Errorf("%s differs between two runs of one seed: %v and %v", name, runs[0][name], runs[1][name])
		}
	}
}

// TestWritesCancelOut checks the generator's promise that replaying a
// write list leaves every cell's point count where it was.
func TestWritesCancelOut(t *testing.T) {
	g := grid{dims: cubeDims(32), writeCells: [][]int{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {16, 0, 0}, {17, 0, 0}}}
	for _, n := range []int{50, 333, 2800} {
		net := map[[3]int]int{}
		for _, o := range genOps(11, 0, n, writeMix, g) {
			switch o.Kind {
			case opInsert:
				net[[3]int(o.Lo)]++
			case opDelete:
				net[[3]int(o.Lo)]--
			}
		}
		for cell, d := range net {
			if d != 0 {
				t.Errorf("%d ops: cell %v ends a pass %+d points off", n, cell, d)
			}
		}
	}
}

// TestMixCountsAreExact checks the stratification: the counts per kind
// follow the mix and add up, and a round's range count is what the
// sizing code says it is.
func TestMixCountsAreExact(t *testing.T) {
	g := grid{dims: cubeDims(32), writeCells: [][]int{{0, 0, 0}}}
	for _, n := range []int{1, 7, 50, 600, 1401} {
		for _, m := range []mix{readMix, layoutMix, writeMix} {
			var got [numOpKinds]int
			for _, o := range genOps(1, 0, n, m, g) {
				got[o.Kind]++
			}
			if got != apportion(n, m) {
				t.Errorf("n=%d mix %v: generated %v, apportioned %v", n, m, got, apportion(n, m))
			}
			total := 0
			for _, c := range got {
				total += c
			}
			if total != n || got[opInsert] != got[opDelete] {
				t.Errorf("n=%d mix %v: %d ops, %d inserts, %d deletes", n, m, total, got[opInsert], got[opDelete])
			}
			if got[opHot]+got[opUniform] != rangeCount(n, m) {
				t.Errorf("n=%d mix %v: %d ranges, rangeCount says %d", n, m, got[opHot]+got[opUniform], rangeCount(n, m))
			}
		}
	}
	for _, sp := range specs {
		cfg := config{scale: 0.01}
		if got := sp.lanes * rangeCount(cfg.opsEach(sp), sp.mix); got < minRangesPerRound {
			t.Errorf("%s at scale 0.01: %d ranges per round, want at least %d", sp.name, got, minRangesPerRound)
		}
	}
}

// TestPercentileTailGuard checks the ten-samples-beyond rule and the
// nearest-rank definition.
func TestPercentileTailGuard(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {5, 50}, {1, 50}} {
		if got := supportedPercentile(tc.n, 99); got != tc.want {
			t.Errorf("supportedPercentile(%d, 99) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := supportedPercentile(5000, 95); got != 95 {
		t.Errorf("supportedPercentile never exceeds the wanted percentile: got %v", got)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if x, beyond := percentile(xs, 99); x != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", x, beyond)
	}
	if x, beyond := percentile(xs, 50); x != 500 || beyond != 500 {
		t.Errorf("p50 of 1..1000 = %v with %d beyond, want 500 with 500", x, beyond)
	}
	if x, _ := percentile(xs[:1], 99); x != 1 {
		t.Errorf("p99 of one sample = %v, want the sample", x)
	}
}

// TestSelfTimes checks self time on a hand-built tree: overlapping
// children are counted once, and a child that overruns is clipped.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Op: "w/c0/0", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Op: "w/c0/0", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Op: "w/c0/0", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "c", Op: "w/c0/0", Start: 10, End: 40},
	}
	self := selfTimes(spans)
	if self[1] != 50 || self[2] != 0 || self[3] != 30 || self[4] != 30 {
		t.Errorf("self times %v, want 1:50 2:0 3:30 4:30", self)
	}
	if err := checkNesting(spans); err != nil {
		t.Error(err)
	}
	spans[3].End = 41
	if err := checkNesting(spans); err == nil {
		t.Error("a child ending after its parent passed the nesting check")
	}
}

// TestWorseBy checks the self-check's direction handling.
func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); got != 0.1 {
		t.Errorf("lower-is-better 100 -> 110 is worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 90, "higher"); got != 0.1 {
		t.Errorf("higher-is-better 100 -> 90 is worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 110, "higher"); got != -0.1 {
		t.Errorf("higher-is-better 100 -> 110 is worse by %v, want -0.1", got)
	}
}
