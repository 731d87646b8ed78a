package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"thermemu/internal/scenario"
	"thermemu/internal/sweep"
)

// cutListener hands out its first connection wrapped so that it closes
// itself once the coordinator has read more than cutAfter bytes from it:
// past the worker's first ready and into its first result.
type cutListener struct {
	net.Listener
	once sync.Once
}

const cutAfter = 300

func (l *cutListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.once.Do(func() { conn = &cutConn{Conn: conn} })
	return conn, nil
}

type cutConn struct {
	net.Conn
	read int
}

func (c *cutConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.read += n; c.read > cutAfter {
		c.Conn.Close()
	}
	return n, err
}

// TestWorkerRedialHealsCut cuts a worker's first session after the
// coordinator has read its first result. With -redial the worker starts a
// fresh session at once: the grid finishes in well under the sweep's 60 s
// idle budget, with one lost session and the serial digests.
func TestWorkerRedialHealsCut(t *testing.T) {
	dir := t.TempDir()
	base := scenario.New()
	base.SharedKB = 64
	base.N = 12
	base.Iters = 20
	base.WindowMs = 0.05
	base.Digest = true
	if err := os.WriteFile(filepath.Join(dir, "base.scn"), []byte(base.Render()), 0o644); err != nil {
		t.Fatal(err)
	}
	// Two floorplans make two jobs (a job is one platform's policies), so
	// the cut lands with the grid half done.
	spec, err := sweep.ParseSpec("thermemu-sweep v1\n[sweep]\nname = cut\n[base]\nscenario = base.scn\n" +
		"[axis floorplan]\nvalues = arm11, arm7\n[axis policy]\nvalues = none, threshold-dfs\n")
	if err != nil {
		t.Fatal(err)
	}
	points, err := spec.Expand(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]string{}
	for _, p := range points {
		r, err := sweep.RunPoint(p.Scenario, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref[p.Name] = r.Digest
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	workerErr := make(chan error, 1)
	go func() { workerErr <- runWorker(ln.Addr().String(), "w", true, t.Logf) }()
	type served struct {
		out *sweep.Outcome
		err error
	}
	done := make(chan served, 1)
	start := time.Now()
	go func() {
		out, err := sweep.Serve(spec, dir, &cutListener{Listener: ln}, sweep.Options{})
		done <- served{out, err}
	}()
	var s served
	select {
	case s = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the grid did not finish within 10 s of the cut")
	}
	t.Logf("grid finished %v after the start", time.Since(start).Round(time.Millisecond))
	if s.err != nil {
		t.Fatal(s.err)
	}
	if err := <-workerErr; err != nil {
		t.Errorf("worker: %v", err)
	}
	if len(s.out.Results) != len(ref) {
		t.Fatalf("%d results, want %d", len(s.out.Results), len(ref))
	}
	for _, r := range s.out.Results {
		if r.Digest != ref[r.Name] {
			t.Errorf("point %s digest %s, want serial %s", r.Name, r.Digest, ref[r.Name])
		}
	}
	if s.out.SessionFailures != 1 {
		t.Errorf("%d session failures, want 1 (the cut)", s.out.SessionFailures)
	}
}

// exitListener records the connections it accepts, so a test can close
// them all once Serve returns, as the coordinator process's exit would.
type exitListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *exitListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, conn)
		l.mu.Unlock()
	}
	return conn, err
}

func (l *exitListener) exit() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// TestTCPWorkersEndOnDone runs the noc-grid example over a TCP coordinator
// with two workers that do not redial, 20 times, and closes every
// connection once Serve returns. Serve must not return before every
// session has answered its worker's last ready with done, so each worker
// must return nil, and every digest must equal the in-process run's.
func TestTCPWorkersEndOnDone(t *testing.T) {
	const specPath = "../../examples/scenarios/noc-grid.sweep"
	spec, err := sweep.LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(specPath)
	ref, err := sweep.Run(spec, dir, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, r := range ref.Results {
		want[r.Name] = r.Digest
	}
	for run := 0; run < 20; run++ {
		tcp, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln := &exitListener{Listener: tcp}
		workerErr := make(chan error, 2)
		for w := 0; w < 2; w++ {
			name := fmt.Sprintf("run%d-w%d", run, w)
			go func() { workerErr <- runWorker(ln.Addr().String(), name, false, t.Logf) }()
		}
		out, err := sweep.Serve(spec, dir, ln, sweep.Options{})
		ln.exit()
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for w := 0; w < 2; w++ {
			if err := <-workerErr; err != nil {
				t.Errorf("run %d: worker: %v", run, err)
			}
		}
		if len(out.Results) != len(want) {
			t.Fatalf("run %d: %d results, want %d", run, len(out.Results), len(want))
		}
		for _, r := range out.Results {
			if r.Digest != want[r.Name] {
				t.Errorf("run %d: point %s digest %s, want in-process %s", run, r.Name, r.Digest, want[r.Name])
			}
		}
	}
}
