// Command mmserved is the multimap network daemon: it serves the
// session API over HTTP — open stores and pools, begin plain or QoS
// sessions, run beam/range/fetch/insert/delete/flush, stream range
// results chunk-by-chunk as NDJSON, and watch the live SSE
// event+metrics feed on /v1/events. See the repro/internal/server
// package documentation for the wire protocol.
//
// Usage:
//
//	mmserved -addr :8080
//	mmserved -addr 127.0.0.1:0 -open '{"name":"demo","disks":["atlas10k3"],
//	    "mapping":"multimap","dims":[64,4,4,4]}'
//
// -open takes an OpenStoreRequest JSON spec and may repeat (a spec with
// an unknown field is a usage error); each spec is opened before the
// listener starts, so a readiness poll on
// /v1/stores sees the boot datasets. On SIGINT/SIGTERM the daemon
// stops accepting connections, drains in-flight requests (streamed
// queries retire or get cancelled by their clients), closes every
// session, store, and pool tenant, and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// specList collects repeated -open flags.
type specList []string

func (l *specList) String() string { return fmt.Sprintf("%d specs", len(*l)) }
func (l *specList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mmserved: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:9117", "listen address (host:port; port 0 picks a free port)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
		opens        specList
	)
	flag.Var(&opens, "open", "OpenStoreRequest JSON spec to open at boot (repeatable)")
	flag.Parse()
	if flag.NArg() > 0 {
		usageErr("unexpected arguments: %v", flag.Args())
	}
	if *drainTimeout <= 0 {
		usageErr("-drain-timeout must be positive, got %v", *drainTimeout)
	}

	srv := server.New()
	for _, raw := range opens {
		var req server.OpenStoreRequest
		if err := server.DecodeStrict(strings.NewReader(raw), &req); err != nil {
			usageErr("bad -open spec %q: %v", raw, err)
		}
		info, err := srv.OpenStore(context.Background(), req)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmserved: open %q: %v\n", req.Name, err)
			os.Exit(1)
		}
		fmt.Printf("opened store %s: mapping=%s dims=%v shards=%d\n",
			info.Name, info.Mapping, info.Dims, info.Shards)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmserved: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	fmt.Printf("mmserved listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case sig := <-sigCh:
		fmt.Printf("mmserved: %v, draining\n", sig)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "mmserved: serve: %v\n", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the front-end first: srv.Close wakes the SSE event streams
	// (they only end on its done signal), waits out in-flight requests,
	// and closes every session, store, and pool tenant. Only then stop
	// the listener — its connections are idle once the handlers return.
	if err := srv.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "mmserved: close: %v\n", err)
		os.Exit(1)
	}
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "mmserved: shutdown: %v\n", err)
	}
	fmt.Println("mmserved: clean shutdown")
}
