package locktable_test

// Registers the netlock client↔server loopback pair as a conformance
// backend: every semantics test of the suite runs against a real TCP
// connection to a server hosting a sharded table, so the wire protocol's
// blocking behavior is held to exactly the in-process contract. (This
// lives in the external test package — the netlock package imports
// locktable, so the registration cannot happen from inside it.)

import (
	"time"

	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
)

// loopbackTable is a netlock client whose Close also tears down the
// server it was dialed against — the suite's Cleanup only knows Close.
type loopbackTable struct {
	*netlock.Client
	srv *netlock.Server
}

func (l *loopbackTable) Close() {
	l.Client.Close()
	l.srv.Close()
}

func init() {
	locktable.RegisterConformanceBackend("netlock", func(ddb *model.DDB, cfg locktable.Config) locktable.Table {
		srvCfg := cfg
		srvCfg.OnWound = nil // wounds are pushed to the owning connection
		srv, err := netlock.NewServer(ddb, srvCfg, netlock.ServerOptions{Lease: 10 * time.Second})
		if err != nil {
			panic(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			panic(err)
		}
		cli, err := netlock.Dial(srv.Addr(), ddb, cfg, netlock.DialOptions{HeartbeatEvery: 100 * time.Millisecond})
		if err != nil {
			srv.Close()
			panic(err)
		}
		return &loopbackTable{Client: cli, srv: srv}
	})
}
