// Command dlserver hosts a lock table for remote clients: the
// cross-process half of the paper's distributed sites. It serves the
// netlock wire protocol (internal/netlock) over TCP, fronting an
// in-process sharded lock table with per-connection session identity,
// heartbeat-renewed leases, releases that name their owner and fail as
// stale once a lease expiry revoked their grant, and release-on-disconnect
// — so several engine processes (dladmit -backend remote, or any
// distlock.LockService opened WithRemoteTable) can contend for one shared
// lock space and a crashed client's locks are revoked, never leaked.
//
// The database is reconstructed from the same deterministic generator the
// clients use: -sites and -entities-per-site must match the client's
// flags (the connection handshake verifies a database fingerprint, so a
// mismatch is rejected with a clear error instead of corrupting grants).
//
// Usage:
//
//	dlserver -addr :9911 -sites 8 -entities-per-site 8
//	dlserver -addr :9911 -sites 8 -entities-per-site 8 -wound-wait
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/netlock"
	"distlock/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main with its arguments, output streams and shutdown signal
// injected, so the command's test can drive it: it serves until ctx is
// done and returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:9911", "TCP listen address (host:0 picks a free port)")
		sites     = fs.Int("sites", 8, "number of database sites (must match the clients' generator)")
		perSite   = fs.Int("entities-per-site", 8, "entities per site (must match the clients' generator)")
		woundWait = fs.Bool("wound-wait", false, "host a wound-wait table (for a fallback tier); dialers must agree")
		lease     = fs.Duration("lease", netlock.DefaultLease, "connection lease: a client silent this long is revoked")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty disables)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *sites < 1 || *perSite < 1 {
		fmt.Fprintln(stderr, "dlserver: need at least one site and one entity per site")
		return 2
	}
	ddb := workload.NewDDB(workload.Config{Sites: *sites, EntitiesPerSite: *perSite})

	srv, err := netlock.NewServer(ddb, locktable.Config{
		WoundWait: *woundWait,
	}, netlock.ServerOptions{Lease: *lease})
	if err != nil {
		fmt.Fprintln(stderr, "dlserver:", err)
		return 1
	}
	if err := srv.Listen(*addr); err != nil {
		fmt.Fprintln(stderr, "dlserver:", err)
		srv.Close()
		return 1
	}
	fmt.Fprintf(stdout, "dlserver: serving %d entities across %d sites on %s (sharded table, wound-wait=%v, lease %v)\n",
		ddb.NumEntities(), ddb.NumSites(), srv.Addr(), *woundWait, *lease)
	if *debugAddr != "" {
		dbg, err := startDebug(*debugAddr, srv)
		if err != nil {
			fmt.Fprintln(stderr, "dlserver:", err)
			srv.Close()
			return 1
		}
		fmt.Fprintf(stdout, "dlserver: debug endpoints on http://%s (/metrics, /debug/vars, /debug/pprof)\n", dbg)
	}

	<-ctx.Done()
	fmt.Fprintln(stdout, "dlserver: shutting down")
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
		return 0
	case <-time.After(10 * time.Second):
		fmt.Fprintln(stderr, "dlserver: shutdown timed out")
		return 1
	}
}
