package netlock

import (
	"context"
	"net"
	"testing"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/model"
	"distlock/internal/workload"
)

func retryDDB(t *testing.T) *model.DDB {
	t.Helper()
	return workload.NewDDB(workload.Config{Sites: 2, EntitiesPerSite: 2})
}

// reservePort grabs a free loopback port and immediately releases it, so
// the test can dial an address that is briefly guaranteed unbound.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDialRetriesLateListener is the racing-startup scenario DialRetries
// exists for: the server binds its listener only after the client's first
// connect attempts have been refused, and the bounded retry loop must
// carry the dial through to a working session.
func TestDialRetriesLateListener(t *testing.T) {
	ddb := retryDDB(t)
	addr := reservePort(t)

	srvCh := make(chan *Server, 1)
	go func() {
		time.Sleep(250 * time.Millisecond)
		srv, err := NewServer(ddb, locktable.Config{}, ServerOptions{})
		if err != nil {
			t.Error(err)
			srvCh <- nil
			return
		}
		if err := srv.Listen(addr); err != nil {
			t.Error(err)
			srv.Close()
			srvCh <- nil
			return
		}
		srvCh <- srv
	}()

	cli, err := Dial(addr, ddb, locktable.Config{}, DialOptions{
		DialRetries:  10,
		RetryBackoff: 20 * time.Millisecond,
	})
	srv := <-srvCh
	if srv != nil {
		defer srv.Close()
	}
	if err != nil {
		t.Fatalf("dial with retries against a late-bound listener: %v", err)
	}
	defer cli.Close()

	// The surviving connection must be a real session, not just a socket.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	in := locktable.Instance{Key: locktable.InstKey{ID: 1}}
	ent := model.EntityID(0)
	if err := cli.Acquire(ctx, in, ent, locktable.Exclusive); err != nil {
		t.Fatalf("acquire after retried dial: %v", err)
	}
	if err := cli.Release(ent, in.Key); err != nil {
		t.Fatalf("release after retried dial: %v", err)
	}
}

// TestDialNoRetriesFailsFast pins the default posture: without
// DialRetries the first refused connect is the answer, promptly.
func TestDialNoRetriesFailsFast(t *testing.T) {
	ddb := retryDDB(t)
	addr := reservePort(t)
	start := time.Now()
	if _, err := Dial(addr, ddb, locktable.Config{}, DialOptions{}); err == nil {
		t.Fatal("dial against an unbound port succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("no-retry dial took %v; want a fast failure", d)
	}
}

// TestDialRetriesExhausted pins the bound: a port that never binds fails
// after the retry budget, roughly within the backoff schedule's span.
func TestDialRetriesExhausted(t *testing.T) {
	ddb := retryDDB(t)
	addr := reservePort(t)
	start := time.Now()
	_, err := Dial(addr, ddb, locktable.Config{}, DialOptions{
		DialRetries:  3,
		RetryBackoff: 10 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dial against a never-bound port succeeded")
	}
	// Schedule: 10 + 20 + 40 = 70ms of backoff plus four connect attempts.
	if d := time.Since(start); d < 70*time.Millisecond {
		t.Fatalf("retries exhausted after only %v; backoff schedule not honored", d)
	}
}
