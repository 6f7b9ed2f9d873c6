// Command dlserver hosts a lock table for remote clients: the
// cross-process half of the paper's distributed sites. It serves the
// netlock wire protocol (internal/netlock) over TCP, fronting an
// in-process sharded lock table with per-connection session identity,
// heartbeat-renewed leases, fencing tokens on every grant, and
// release-on-disconnect — so several engine processes (dladmit -backend
// remote, or any distlock.LockService opened WithRemoteTable) can contend
// for one shared lock space and a crashed client's locks are revoked,
// never leaked.
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
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/netlock"
	"distlock/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9911", "TCP listen address (host:0 picks a free port)")
		sites     = flag.Int("sites", 8, "number of database sites (must match the clients' generator)")
		perSite   = flag.Int("entities-per-site", 8, "entities per site (must match the clients' generator)")
		shards    = flag.Int("shards", 0, "sharded backend stripe count (0 = default)")
		woundWait = flag.Bool("wound-wait", false, "host a wound-wait table (for a fallback tier); dialers must agree")
		lease     = flag.Duration("lease", netlock.DefaultLease, "connection lease: a client silent this long is revoked")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty disables)")
	)
	flag.Parse()

	if *sites < 1 || *perSite < 1 {
		fmt.Fprintln(os.Stderr, "dlserver: need at least one site and one entity per site")
		os.Exit(2)
	}
	ddb := workload.NewDDB(workload.Config{Sites: *sites, EntitiesPerSite: *perSite})

	srv, err := netlock.NewServer(ddb, locktable.Config{
		WoundWait: *woundWait,
		Shards:    *shards,
	}, netlock.ServerOptions{Lease: *lease})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlserver:", err)
		os.Exit(1)
	}
	if err := srv.Listen(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "dlserver:", err)
		os.Exit(1)
	}
	fmt.Printf("dlserver: serving %d entities across %d sites on %s (sharded table, wound-wait=%v, lease %v)\n",
		ddb.NumEntities(), ddb.NumSites(), srv.Addr(), *woundWait, *lease)
	if *debugAddr != "" {
		dbg, err := startDebug(*debugAddr, srv)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlserver:", err)
			os.Exit(1)
		}
		fmt.Printf("dlserver: debug endpoints on http://%s (/metrics, /debug/vars, /debug/pprof)\n", dbg)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("dlserver: shutting down")
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		fmt.Fprintln(os.Stderr, "dlserver: shutdown timed out")
		os.Exit(1)
	}
}
