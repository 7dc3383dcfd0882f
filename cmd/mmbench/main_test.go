package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	multimap "repro"
	"repro/internal/server"
)

// TestMain runs mmbench's main instead of the tests when MMBENCH_ARGS
// is set, so TestCommandLine can check exit codes in a child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MMBENCH_ARGS"); ok {
		os.Args = append([]string{"mmbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCommandLine: an unknown experiment is a failed run (exit 1); an
// undefined flag and an out-of-range value are usage errors (exit 2).
func TestCommandLine(t *testing.T) {
	for _, c := range []struct {
		args   string
		code   int
		stderr string
	}{
		{"-exp serve", 1, "unknown experiment"},
		{"-exp adjacency", 1, "unknown experiment"},
		{"-cache 1", 2, "not defined: -cache"},
		{"-shards 2", 2, "not defined: -shards"},
		{"-wb", 2, "not defined: -wb"},
		{"-aging 1ms", 2, "not defined: -aging"},
		{"-writes 1", 2, "outside [0,1)"},
		{"-deadline -1s", 2, "non-negative"},
		{"-scale 1.5", 2, "scale"},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "MMBENCH_ARGS="+c.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != c.code || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("mmbench %s: %v, want exit %d with %q in:\n%s", c.args, err, c.code, c.stderr, stderr.String())
		}
	}
}

// TestServeConfigRanges: the validator of -remote's serve-style load
// rejects every out-of-range value its flags can carry, and passes the
// zero config.
func TestServeConfigRanges(t *testing.T) {
	if err := (remoteConfig{}).validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	for flag, mangle := range map[string]func(*remoteConfig){
		"clients":   func(c *remoteConfig) { c.Clients = -1 },
		"queries":   func(c *remoteConfig) { c.Queries = -1 },
		"writes":    func(c *remoteConfig) { c.Writes = -0.1 },
		"writes>=1": func(c *remoteConfig) { c.Writes = 1 },
		"deadline":  func(c *remoteConfig) { c.Deadline = -time.Millisecond },
	} {
		var c remoteConfig
		mangle(&c)
		if err := c.validate(); err == nil {
			t.Errorf("-%s out of range accepted: %+v", flag, c)
		}
	}
}

// TestRunExperimentDispatch drives runOne the way main does: a paper
// figure prints its table and wall time, and an id outside the
// library's is refused.
func TestRunExperimentDispatch(t *testing.T) {
	cfg := multimap.ExperimentConfig{Disks: []multimap.DiskModel{multimap.AtlasTenKIII}, Scale: 0.15, Runs: 2, Seed: 7}
	var out bytes.Buffer
	if err := runOne(&out, "fig1b", cfg); err != nil || !strings.Contains(out.String(), "== fig1b") ||
		!strings.Contains(out.String(), "(fig1b in ") {
		t.Errorf("fig1b through the library: %v\n%s", err, out.String())
	}
	for _, id := range []string{"fig99", "serve", "burst", "tenants"} {
		if err := runOne(&out, id, cfg); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-exp %s: got %v, want unknown experiment", id, err)
		}
	}
}

// TestRemoteAgainstDaemon runs -remote's load against an in-process
// daemon. With 30 % inserts on an updatable store every operation
// succeeds and the run returns nil; on a store opened without
// Updatable every insert fails, and so must the run. An error that is
// only an op's own -deadline expiring is not a failure.
func TestRemoteAgainstDaemon(t *testing.T) {
	ctx := context.Background()
	for _, updatable := range []bool{true, false} {
		srv := server.New()
		if _, err := srv.OpenStore(ctx, server.OpenStoreRequest{
			Name: "s", Disks: []string{"mediumtest"}, AdjDepth: 32, Mapping: "multimap",
			Dims: []int{16, 8, 8}, ChunkCells: 16, Updatable: updatable,
		}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		err := runRemote(remoteConfig{Addr: ts.URL, Store: "s", Clients: 2, Queries: 8, Writes: 0.3, Seed: 1})
		ts.Close()
		if cerr := srv.Close(ctx); cerr != nil {
			t.Fatal(cerr)
		}
		if updatable && err != nil {
			t.Errorf("updatable store: %v", err)
		}
		if !updatable && (err == nil || !strings.Contains(err.Error(), "operations failed")) {
			t.Errorf("inserts on a store without Updatable: %v, want the run to fail", err)
		}
	}

	for _, c := range []struct {
		err        error
		deadlineMs int64
		errs       int
	}{
		{context.DeadlineExceeded, 50, 0},
		{context.DeadlineExceeded, 0, 1},
		{errors.New("multimap: store not opened with Updatable"), 50, 1},
	} {
		var row remoteClientRow
		row.fail(c.err, c.deadlineMs)
		if row.errs != c.errs {
			t.Errorf("fail(%v, %d): errs %d, want %d", c.err, c.deadlineMs, row.errs, c.errs)
		}
	}
}
