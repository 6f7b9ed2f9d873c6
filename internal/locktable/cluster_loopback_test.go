package locktable_test

// Registers the partitioned cluster table as a conformance backend: every
// semantics test of the suite runs against a cluster.Table routing over
// TWO loopback dlservers, so the cross-partition logic (ReleaseAll
// fan-out) is held to exactly the in-process contract. The suite's four entities split across both
// partitions under the routing hash, so multi-entity tests genuinely
// cross servers. (External test package for the same reason as the
// netlock registration: cluster imports locktable.)

import (
	"time"

	"distlock/internal/cluster"
	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/netlock"
)

// clusterLoopback is a cluster table whose Close also tears down the
// servers it was dialed against — the suite's Cleanup only knows Close.
type clusterLoopback struct {
	*cluster.Table
	srvs []*netlock.Server
}

func (c *clusterLoopback) Close() {
	c.Table.Close()
	for _, s := range c.srvs {
		s.Close()
	}
}

func init() {
	locktable.RegisterConformanceBackend("cluster", func(ddb *model.DDB, cfg locktable.Config) locktable.Table {
		var srvs []*netlock.Server
		var addrs []string
		for i := 0; i < 2; i++ {
			srv, err := netlock.NewServer(ddb, cfg, netlock.ServerOptions{Lease: 10 * time.Second})
			if err != nil {
				panic(err)
			}
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				panic(err)
			}
			srvs = append(srvs, srv)
			addrs = append(addrs, srv.Addr())
		}
		tab, err := cluster.New(ddb, cfg, addrs, cluster.Options{
			Dial: netlock.DialOptions{HeartbeatEvery: 100 * time.Millisecond},
		})
		if err != nil {
			for _, s := range srvs {
				s.Close()
			}
			panic(err)
		}
		return &clusterLoopback{Table: tab, srvs: srvs}
	})
}
