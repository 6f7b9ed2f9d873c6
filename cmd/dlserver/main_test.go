package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"distlock/internal/locktable"
	"distlock/internal/netlock"
	"distlock/internal/workload"
)

// syncBuffer is a bytes.Buffer safe to read while run writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunUsageErrors: a flag the command does not define, or a database
// with no entities, is a usage error (exit 2) reported before anything
// listens.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-sites", "0"}, {"-shards", "4"}} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("run %q = %d, want 2\nstderr:\n%s", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("run %q printed %q; a usage error serves nothing", args, stdout.String())
		}
	}
}

// TestRunServes: a server on 127.0.0.1:0 grants and releases for a
// netlock client with the same generator flags, shows a parked request on
// its /metrics page while it waits, rejects a client whose -sites differ
// at the handshake, and exits 0 once its context ends.
func TestRunServes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	exited := make(chan int, 1)
	go func() {
		exited <- run(ctx, []string{"-addr", "127.0.0.1:0", "-sites", "2", "-entities-per-site", "3",
			"-debug-addr", "127.0.0.1:0"}, &stdout, &stderr)
	}()

	var addr, debugAddr string
	deadline := time.Now().Add(10 * time.Second)
	for debugAddr == "" {
		// The serving line comes first, then the debug endpoints line.
		out := stdout.String()
		if _, rest, ok := strings.Cut(out, "debug endpoints on http://"); ok {
			debugAddr, _, _ = strings.Cut(rest, " ")
			_, rest, _ = strings.Cut(out, " on ")
			addr, _, _ = strings.Cut(rest, " ")
			break
		}
		select {
		case code := <-exited:
			t.Fatalf("run exited %d before serving\nstderr:\n%s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serving line after 10s; stdout %q", stdout.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	ddb := workload.NewDDB(workload.Config{Sites: 2, EntitiesPerSite: 3})
	c, err := netlock.Dial(addr, ddb, locktable.Config{}, netlock.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	actx, acancel := context.WithTimeout(ctx, 5*time.Second)
	defer acancel()
	inst := locktable.Instance{Key: locktable.InstKey{ID: 1}, Prio: 1}
	if err := c.Acquire(actx, inst, 0, locktable.Exclusive); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	// A second client's exclusive acquire parks behind the held lock, and
	// the scrape shows it until the release grants it.
	waiter, err := netlock.Dial(addr, ddb, locktable.Config{}, netlock.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	inst2 := locktable.Instance{Key: locktable.InstKey{ID: 2}, Prio: 2}
	parked := make(chan error, 1)
	go func() { parked <- waiter.Acquire(actx, inst2, 0, locktable.Exclusive) }()
	waitMetric(t, debugAddr, "distlock_table_waiting 1")
	if err := c.Release(0, inst.Key); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := <-parked; err != nil {
		t.Fatalf("parked acquire: %v", err)
	}
	waitMetric(t, debugAddr, "distlock_table_waiting 0")
	if err := waiter.Release(0, inst2.Key); err != nil {
		t.Fatalf("release: %v", err)
	}

	other := workload.NewDDB(workload.Config{Sites: 3, EntitiesPerSite: 3})
	if c2, err := netlock.Dial(addr, other, locktable.Config{}, netlock.DialOptions{}); err == nil {
		c2.Close()
		t.Fatal("a client generated with -sites 3 was accepted by a -sites 2 server")
	} else if !strings.Contains(err.Error(), "rejected handshake") {
		t.Fatalf("mismatched client: %v; want a handshake rejection", err)
	}

	c.Close()
	cancel()
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("run exited %d after shutdown\nstderr:\n%s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after its context ended")
	}
	if !strings.Contains(stdout.String(), "shutting down") {
		t.Errorf("stdout %q has no shutdown line", stdout.String())
	}
}

// waitMetric scrapes the /metrics page at addr until it has the sample
// line, failing the test after 5s.
func waitMetric(t *testing.T, addr, line string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var page string
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if page = string(body); strings.Contains(page, "\n"+line+"\n") {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("/metrics never showed %q; last scrape:\n%s", line, page)
}
