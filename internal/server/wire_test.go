package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	multimap "repro"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire_bytes.golden from this build's encoding")

// fill sets every field reachable from v — nested structs, and two
// elements for every slice — to a non-zero value derived from the
// field's path, so a sample built with it exercises every tag, no
// omitempty hides a field, and reordering a struct's fields moves no
// value.
func fill(v reflect.Value, path string) {
	h := fnv.New32a()
	h.Write([]byte(path))
	n := int64(1 + h.Sum32()%997)
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(n)
	case reflect.Float64:
		v.SetFloat(float64(n) * math.Pi)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", n))
	case reflect.Bool:
		v.SetBool(true)
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

func filled[T any]() T {
	var x T
	fill(reflect.ValueOf(&x).Elem(), "")
	return x
}

// wireDocs is one sample of every response document that carries a
// counter, each with every field set and again with every field zero.
func wireDocs() []struct {
	name string
	doc  any
} {
	full := filled[multimap.Stats]()
	partial := multimap.Stats{Cells: 7, Requests: 2, TotalMs: 1.25, Cancelled: 1, Partial: true}
	chunk := filled[multimap.RangeChunk]()
	m := filled[multimap.Metrics]()
	// A store nothing has run on yet: one idle shard, no class seen.
	fresh := multimap.Metrics{Shards: make([]multimap.ServiceMetrics, 1), Classes: []multimap.ClassTotals{}}
	usage := filled[multimap.DriveUsage]()
	return []struct {
		name string
		doc  any
	}{
		{"stats_full", full},
		{"stats_zero", multimap.Stats{}},
		{"chunk_full", StreamLine{Chunk: &chunk}},
		{"chunk_zero", StreamLine{Chunk: &multimap.RangeChunk{}}},
		{"trailer_classes", StreamLine{Trailer: &RangeTrailer{Stats: chunk.Stats, Chunks: 3, SessionStats: full, Classes: m.Classes}}},
		{"trailer_bare", StreamLine{Trailer: &RangeTrailer{Stats: partial, Error: "context canceled", Classes: fresh.Classes}}},
		{"metrics_two_shards", m},
		{"metrics_fresh", fresh},
		// The SSE "metrics" frame of /v1/events.
		{"metrics_document", MetricsResponse{Stores: map[string]multimap.Metrics{"a": m, "b": fresh}}},
		{"session_info", SessionInfo{Session: "s1", Store: "a", Class: "interactive", Stats: full}},
		{"stats_response_error", StatsResponse{Stats: partial, Error: "context deadline exceeded"}},
		{"pool_info", PoolInfo{Name: "p", Tenants: []string{"t1", "t2"}, Usage: []multimap.DriveUsage{usage, {}}}},
	}
}

// TestWireBytes pins every counter-carrying document to the bytes the
// hand-written mirror structs produced: testdata/wire_bytes.golden was
// captured at the last commit that had them, through their copy
// functions, with the encoder the handlers use.
func TestWireBytes(t *testing.T) {
	var got bytes.Buffer
	for _, d := range wireDocs() {
		fmt.Fprintf(&got, "%s ", d.name)
		if err := json.NewEncoder(&got).Encode(d.doc); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
	}
	const golden = "testdata/wire_bytes.golden"
	if *updateWire {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d documents, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("encodes as\n%s\nwant\n%s", gotLines[i], wantLines[i])
		}
	}
}

// counterTypes are the library types that go onto the wire as they are.
var counterTypes = []reflect.Type{
	reflect.TypeOf(multimap.Stats{}),
	reflect.TypeOf(multimap.ServiceTotals{}),
	reflect.TypeOf(multimap.ClassTotals{}),
	reflect.TypeOf(multimap.ServiceMetrics{}),
	reflect.TypeOf(multimap.Metrics{}),
	reflect.TypeOf(multimap.RangeChunk{}),
	reflect.TypeOf(multimap.DriveUsage{}),
}

// TestCountersCarryTags: every field of a wire-going library type names
// itself on the wire — a counter added without a tag fails here instead
// of appearing as "CowFaultBlocks" — in snake_case, once per struct.
func TestCountersCarryTags(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	for _, typ := range counterTypes {
		seen := map[string]string{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if !f.IsExported() || !snake.MatchString(name) {
				t.Errorf("%s.%s: json tag %q; want an exported field with a snake_case name", typ.Name(), f.Name, name)
			}
			if prev, dup := seen[name]; dup {
				t.Errorf("%s: %s and %s share the name %q", typ.Name(), prev, f.Name, name)
			}
			seen[name] = f.Name
		}
	}
}

// TestCountersRoundTrip: what a client decodes is the value the daemon
// held, every field and every float bit (Go encodes a float64 as the
// shortest decimal that parses back to it).
func TestCountersRoundTrip(t *testing.T) {
	for _, typ := range counterTypes {
		x, y := reflect.New(typ), reflect.New(typ)
		fill(x.Elem(), "")
		data, err := json.Marshal(x.Interface())
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, y.Interface()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(x.Elem().Interface(), y.Elem().Interface()) {
			t.Errorf("%s: decoded %+v from %s, encoded %+v", typ.Name(), y.Elem(), data, x.Elem())
		}
	}
}

// TestClientSeesLibraryValues is the round trip end to end: the stats a
// lone session's trailer, session info and metrics document carry, as
// Client decodes them, == the values the library holds behind the
// daemon.
func TestClientSeesLibraryValues(t *testing.T) {
	srv, ts, c := startDaemon(t, testSpec("rt"))
	defer ts.Close()
	defer srv.Close(context.Background())
	ctx := context.Background()
	id, err := c.Begin(ctx, "rt", "interactive")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Beam(ctx, "rt", id, 1, []int{3, 0, 2}, 0); err != nil {
		t.Fatal(err)
	}
	var sum multimap.Stats
	tr, err := c.RangeQuery(ctx, "rt", id, []int{0, 0, 0}, []int{8, 8, 8}, 0, func(ch multimap.RangeChunk) {
		sum.Accumulate(ch.Stats)
	})
	if err != nil {
		t.Fatal(err)
	}
	store := underlying(t, srv, "rt")
	srv.mu.Lock()
	se := srv.stores["rt"]
	srv.mu.Unlock()
	se.mu.Lock()
	sess := se.sessions[id].sess
	se.mu.Unlock()
	if want := sess.Stats(); tr.SessionStats != want || want.Cells == 0 {
		t.Errorf("trailer session_stats %+v, the session holds %+v", tr.SessionStats, want)
	}
	if sum.Cells != tr.Stats.Cells || sum.Requests != tr.Stats.Requests {
		t.Errorf("chunk lines sum to %+v, trailer says %+v", sum, tr.Stats)
	}
	if got, err := c.SessionStats(ctx, "rt", id); err != nil || got != sess.Stats() {
		t.Errorf("session info stats %+v (%v), the session holds %+v", got, err, sess.Stats())
	}
	if !reflect.DeepEqual(tr.Classes, store.ClassTotals()) {
		t.Errorf("trailer classes %+v, the store holds %+v", tr.Classes, store.ClassTotals())
	}
	if got, err := c.Metrics(ctx, "rt"); err != nil || !reflect.DeepEqual(got, store.Metrics()) {
		t.Errorf("metrics %+v (%v), the store holds %+v", got, err, store.Metrics())
	}
}
