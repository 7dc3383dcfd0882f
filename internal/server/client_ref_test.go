package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	multimap "repro"
)

// decodeStreamRef is the range-stream loop decodeStream replaced, kept
// as its oracle: a bufio.Scanner frames the lines and each one gets a
// fresh json.Unmarshal into a fresh StreamLine.
func decodeStreamRef(r io.Reader, onChunk func(multimap.RangeChunk)) (RangeTrailer, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var line StreamLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return RangeTrailer{}, fmt.Errorf("bad stream line: %w", err)
		}
		switch {
		case line.Chunk != nil:
			if onChunk != nil {
				onChunk(*line.Chunk)
			}
		case line.Trailer != nil:
			tr := *line.Trailer
			if tr.Error != "" {
				return tr, fmt.Errorf("%s", tr.Error)
			}
			return tr, nil
		}
	}
	if err := sc.Err(); err != nil {
		return RangeTrailer{}, err
	}
	return RangeTrailer{}, fmt.Errorf("stream ended without trailer")
}

// recordRange returns the raw body of a streamed MultiMap range over
// the whole 16×8×8 grid, as the daemon wrote it.
func recordRange(t *testing.T) string {
	t.Helper()
	srv, ts, c := startDaemon(t, testSpec("rec"))
	defer ts.Close()
	defer srv.Close(context.Background())
	id, err := c.Begin(context.Background(), "rec", "interactive")
	if err != nil {
		t.Fatal(err)
	}
	req, _ := json.Marshal(RangeRequest{Lo: []int{0, 0, 0}, Hi: []int{16, 8, 8}})
	resp, err := http.Post(c.sessionURL("rec", id, "/range"), "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("range: HTTP %d, %v", resp.StatusCode, err)
	}
	return string(body)
}

// errText is an error's text, "" for none.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDecodeStreamMatchesRef feeds the same bytes to decodeStream and
// to the loop it replaced: both must deliver the same chunks, every
// field included, and return the same trailer and the same error text.
// Each body is read whole, in small reads, and cut by a read error both
// mid-line and at a line boundary.
func TestDecodeStreamMatchesRef(t *testing.T) {
	live := recordRange(t)
	lines := strings.SplitAfter(strings.TrimSuffix(live, "\n"), "\n")
	chunks, trailer := strings.Join(lines[:len(lines)-1], ""), lines[len(lines)-1]
	// The live chunks alternate padding > 0 with padding 0 (0, 11, 0,
	// 15, 0, 5, 0, 0). Padding is an omitempty field, so a chunk that is
	// not reset between lines would keep a stale value after a padded one.
	stale := false
	for i, prev := 0, int64(0); i < len(lines)-1; i++ {
		var sl StreamLine
		if err := json.Unmarshal([]byte(lines[i]), &sl); err != nil || sl.Chunk == nil {
			t.Fatalf("recorded line %q: %v", lines[i], err)
		}
		stale = stale || prev > 0 && sl.Chunk.Stats.Padding == 0
		prev = sl.Chunk.Stats.Padding
	}
	if !stale {
		t.Fatalf("no padded chunk of the recorded range is followed by an unpadded one:\n%s", live)
	}
	errTrailer, err := json.Marshal(StreamLine{Trailer: &RangeTrailer{
		Error:  "context deadline exceeded",
		Chunks: 2,
		Stats:  multimap.Stats{Cells: 32, Cancelled: 1},
		Classes: []multimap.ClassTotals{
			{Class: "interactive", Ops: 3, Attributed: multimap.Stats{Cells: 32}},
			{Class: "bulk", Ops: 1, Deferred: 1},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// pad is a chunk line of exactly n bytes, its newline included.
	pad := func(n int) string {
		head := `{"chunk":{"seq":7,"stats":{"cells":1}}`
		return head + strings.Repeat(" ", n-len(head)-2) + "}\n"
	}
	bodies := []struct{ name, body string }{
		{"live range", live},
		{"blank lines", "\n  \n" + strings.ReplaceAll(chunks, "\n", "\n\r\n\t \n") + "\n" + trailer},
		{"line with neither key", chunks + `{"other":1}` + "\n{}\n" + `{"chunk":null}` + "\n" + trailer},
		{"neither key between chunks", lines[0] + `{"stats":{"cells":3}}` + "\n" + lines[1] + trailer},
		{"trailer with error and classes", chunks + string(errTrailer) + "\n"},
		{"truncated mid-line", live[:len(live)-len(trailer)/2]},
		{"truncated mid-chunk", chunks[:len(chunks)-len(lines[0])/2]},
		{"no trailer", chunks},
		{"empty", ""},
		{"no newline after trailer", strings.TrimSuffix(live, "\n")},
		{"lines after the trailer", live + "garbage\n" + chunks},
		{"bad line", lines[0] + "{\"chunk\":\n" + trailer},
		{"trailing junk", lines[0] + `{"chunk":{"seq":1}} x` + "\n" + trailer},
		{"two values on a line", lines[0] + `{"chunk":{"seq":1}} {"chunk":{"seq":2}}` + "\n" + trailer},
		{"wrong type", lines[0] + `{"chunk":{"seq":"one"}}` + "\n" + trailer},
		{"not an object", lines[0] + "[1]\n" + trailer},
		{"null line", "null\n" + chunks + trailer},
		{"line at the bound", pad(1<<20) + trailer},
		{"line past the bound", lines[0] + pad(1<<20+1) + trailer},
		{"blank line past the bound", strings.Repeat(" ", 1<<20) + "\n" + trailer},
	}
	type result struct {
		chunks  []multimap.RangeChunk
		trailer RangeTrailer
		err     string
	}
	run := func(decode func(io.Reader, func(multimap.RangeChunk)) (RangeTrailer, error), r io.Reader) result {
		var res result
		tr, err := decode(r, func(c multimap.RangeChunk) { res.chunks = append(res.chunks, c) })
		res.trailer, res.err = tr, errText(err)
		return res
	}
	reset := errors.New("connection reset by peer")
	for _, b := range bodies {
		readers := map[string]func() io.Reader{
			"whole": func() io.Reader { return strings.NewReader(b.body) },
			// A Scanner rescans its buffer on every Read, so one byte
			// per Read is quadratic in a 1 MiB line; those take halves.
			"in small reads": func() io.Reader {
				if len(b.body) > 1<<16 {
					return iotest.HalfReader(strings.NewReader(b.body))
				}
				return iotest.OneByteReader(strings.NewReader(b.body))
			},
			"reset mid-line": func() io.Reader {
				return io.MultiReader(strings.NewReader(b.body[:len(b.body)*2/3]), iotest.ErrReader(reset))
			},
			"reset at a line end": func() io.Reader {
				cut := strings.LastIndexByte(b.body[:len(b.body)*2/3], '\n') + 1
				return io.MultiReader(strings.NewReader(b.body[:cut]), iotest.ErrReader(reset))
			},
		}
		for how, r := range readers {
			got, want := run(decodeStream, r()), run(decodeStreamRef, r())
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, read %s:\ndecodeStream    %d chunks, a trailer of %d, error %q\ndecodeStreamRef %d chunks, a trailer of %d, error %q",
					b.name, how, len(got.chunks), got.trailer.Chunks, got.err, len(want.chunks), want.trailer.Chunks, want.err)
				for i := 0; i < len(got.chunks) && i < len(want.chunks); i++ {
					if got.chunks[i] != want.chunks[i] {
						t.Errorf("  first differing chunk %d: %+v, want %+v", i, got.chunks[i], want.chunks[i])
						break
					}
				}
			}
		}
	}
	// The cases stay meaningful: each outcome the loops can reach is
	// reached.
	for _, c := range []struct{ body, err string }{
		{live, ""},
		{chunks + string(errTrailer) + "\n", "context deadline exceeded"},
		{chunks, "stream ended without trailer"},
		{live[:len(live)-len(trailer)/2], "bad stream line: unexpected end of JSON input"},
		{pad(1<<20) + trailer, ""},
		{lines[0] + pad(1<<20+1) + trailer, bufio.ErrTooLong.Error()},
	} {
		if got := run(decodeStream, strings.NewReader(c.body)); got.err != c.err {
			t.Errorf("decodeStream error %q, want %q", got.err, c.err)
		}
	}
}
