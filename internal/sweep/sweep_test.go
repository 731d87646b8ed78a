package sweep

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"thermemu/internal/etherlink"
	"thermemu/internal/scenario"
)

// smallScenario is the test grid's base platform: the default scenario
// shrunk so a point runs in tens of milliseconds and its warm-up
// checkpoint stays well inside one go-back-N resend window.
func smallScenario() *scenario.Scenario {
	s := scenario.New()
	s.SharedKB = 64
	s.N = 12
	s.Iters = 20
	s.WindowMs = 0.05
	s.Digest = true
	return s
}

// smallGrid builds a 4-point grid by hand: two workloads x two policies on
// the small platform.
func smallGrid(t testing.TB) []Point {
	t.Helper()
	var points []Point
	for _, w := range []string{"matrix", "fir"} {
		for _, pol := range []string{"none", "threshold-dfs"} {
			s := smallScenario()
			s.Workload = w
			s.Policy = pol
			s.Name = w + "/" + pol
			if err := s.Lint(); err != nil {
				t.Fatal(err)
			}
			points = append(points, Point{Index: len(points), Name: s.Name, Scenario: s})
		}
	}
	return points
}

// serialDigests runs every point serially (the cmd/thermemu path) and
// returns name -> digest: the reference the parallel columns must match.
func serialDigests(t *testing.T, points []Point) map[string]string {
	t.Helper()
	ref := map[string]string{}
	for _, p := range points {
		r, err := RunPoint(p.Scenario, nil)
		if err != nil {
			t.Fatalf("serial %s: %v", p.Name, err)
		}
		if r.Digest == "" || r.DigestRecords == 0 {
			t.Fatalf("serial %s: no digest accumulated", p.Name)
		}
		ref[p.Name] = r.Digest
	}
	return ref
}

func checkParity(t *testing.T, column string, out *Outcome, ref map[string]string) {
	t.Helper()
	if len(out.Results) != len(ref) {
		t.Fatalf("%s: %d results, want %d", column, len(out.Results), len(ref))
	}
	for _, r := range out.Results {
		want, ok := ref[r.Name]
		if !ok {
			t.Errorf("%s: unexpected point %s", column, r.Name)
			continue
		}
		if r.Digest != want {
			t.Errorf("%s: point %s digest %s, want serial %s", column, r.Name, r.Digest, want)
		}
	}
}

// TestWireRoundTrip pushes an oversized protocol message (a fake multi-chunk
// warm-up checkpoint) through a loopback endpoint pair and checks it
// reassembles bit-identically.
func TestWireRoundTrip(t *testing.T) {
	devTr, coordTr := etherlink.LoopbackPair(256)
	link := (&Options{}).sweepLink()
	worker := newEndpoint(devTr, false, link)
	coord := newEndpoint(coordTr, true, link)
	defer devTr.Close()
	defer coordTr.Close()

	warmup := make([]byte, 4*maxChunk+123)
	for i := range warmup {
		warmup[i] = byte(i * 31)
	}
	sent := &wireMsg{Type: "job", ID: 7, Name: "p7", Scenario: "thermemu-scenario v1\n", Warmup: warmup}

	errc := make(chan error, 1)
	go func() { errc <- sendMsg(worker, sent) }()
	got, err := recvMsg(coord)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got.Type != "job" || got.ID != 7 || got.Name != "p7" || got.Scenario != sent.Scenario {
		t.Fatalf("round trip mangled header: %+v", got)
	}
	if !bytes.Equal(got.Warmup, warmup) {
		t.Fatalf("round trip mangled the %d-byte warmup payload", len(warmup))
	}

	// A graceful CtrlStop mid-stream surfaces as errPeerStopped, not a frame.
	stop := &etherlink.Ctrl{Op: etherlink.CtrlStop}
	if err := worker.Send(etherlink.MsgCtrl, stop.MarshalPayload()); err != nil {
		t.Fatal(err)
	}
	if _, err := recvMsg(coord); !errors.Is(err, errPeerStopped) {
		t.Fatalf("recv after CtrlStop = %v, want errPeerStopped", err)
	}
}

// TestWireRejectsOversizedMessage streams non-final chunks past maxMsgBytes
// and checks the receiver gives up with an error instead of buffering them.
func TestWireRejectsOversizedMessage(t *testing.T) {
	devTr, coordTr := etherlink.LoopbackPair(256)
	link := (&Options{}).sweepLink()
	worker := newEndpoint(devTr, false, link)
	coord := newEndpoint(coordTr, true, link)

	chunk := append([]byte{0}, bytes.Repeat([]byte{'x'}, maxChunk)...)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i <= maxMsgBytes/maxChunk; i++ {
			if worker.Send(etherlink.MsgSweep, chunk) != nil {
				return // the transports closed under a blocked send
			}
		}
	}()
	_, err := recvMsg(coord)
	devTr.Close()
	coordTr.Close()
	<-done
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("recv of an unbounded chunk stream = %v, want the size-cap error", err)
	}
}

// TestSweepInProcessParity is the core determinism contract: a 4-worker
// in-process sweep produces, for every point, the digest the serial
// cmd/thermemu path produces.
func TestSweepInProcessParity(t *testing.T) {
	points := smallGrid(t)
	ref := serialDigests(t, points)
	out, err := RunPoints("grid", points, 0, Options{Workers: 4, StragglerAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, "workers=4", out, ref)
	if out.Windows() == 0 || out.AggregateWindowsPerS() <= 0 {
		t.Fatalf("throughput accounting: %+v", out)
	}
}

// TestSweepStealsStraggler forces work stealing: two workers, one point, a
// straggler threshold far below the point's runtime. The idle worker must
// re-dispatch the in-flight point, and any duplicate result must be
// digest-verified rather than dropped blind.
func TestSweepStealsStraggler(t *testing.T) {
	s := smallScenario()
	s.Name = "lone"
	if err := s.Lint(); err != nil {
		t.Fatal(err)
	}
	points := []Point{{Index: 0, Name: "lone", Scenario: s}}
	ref := serialDigests(t, points)
	out, err := RunPoints("steal", points, 0, Options{Workers: 2, StragglerAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, "steal", out, ref)
	if out.Steals == 0 {
		t.Error("idle worker never stole the straggling point")
	}
}

// TestSweepChaosParity soaks the dispatch protocol: every worker link drops,
// duplicates, reorders and corrupts frames, and the digests still match the
// serial reference exactly.
func TestSweepChaosParity(t *testing.T) {
	points := smallGrid(t)
	ref := serialDigests(t, points)
	out, err := RunPoints("chaos", points, 0, Options{
		Workers:        4,
		StragglerAfter: -1,
		Fault:          etherlink.FaultConfig{Drop: 0.02, Dup: 0.01, Reorder: 0.02, Corrupt: 0.005},
		FaultSeed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, "chaos", out, ref)
}

// TestSweepWorkerDeathRequeues kills one of two workers mid-grid (link cut
// after a fixed frame budget) and checks the dead session's points are
// re-queued and the grid still completes with serial digests.
func TestSweepWorkerDeathRequeues(t *testing.T) {
	points := smallGrid(t)
	ref := serialDigests(t, points)

	opt := Options{StragglerAfter: -1, Logf: t.Logf}
	c := NewCoordinator(points, opt)
	stop := make(chan struct{})
	go c.wake(stop)

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 2; i++ {
		devTr, coordTr := etherlink.LoopbackPair(256)
		var wtr etherlink.Transport = devTr
		if i == 1 {
			// The doomed worker: its send leg dies on the frame after its
			// "ready" — i.e. while delivering its first result — so exactly
			// one computed point is stranded and must be re-queued, however
			// the scheduler interleaved the two workers.
			wtr = etherlink.NewFaultTransport(devTr, 9, etherlink.FaultConfig{CutAfter: 1}, etherlink.FaultConfig{})
		}
		w := &Worker{Name: "w" + string(rune('0'+i)), Link: opt.sweepLink()}
		wg.Add(2)
		go func(tr etherlink.Transport) {
			defer wg.Done()
			w.Serve(tr) // the doomed worker returns a link error; that's the point
		}(wtr)
		go func(tr etherlink.Transport) {
			defer wg.Done()
			c.ServeSession(tr)
		}(coordTr)
	}
	wg.Wait()
	close(stop)
	out, err := c.outcome("death", 2, time.Since(start), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, "worker-death", out, ref)
	if out.SessionFailures == 0 {
		t.Error("the cut session was not counted as a failure")
	}
}

// TestSweepPointErrorFailsFast: a point that cannot run (unknown workload
// smuggled past lint) is a grid configuration error and aborts the sweep
// rather than being retried forever.
func TestSweepPointErrorFailsFast(t *testing.T) {
	s := smallScenario()
	s.Workload = "no-such-workload"
	s.Name = "broken"
	points := []Point{{Index: 0, Name: "broken", Scenario: s}}
	_, err := RunPoints("broken", points, 0, Options{Workers: 1, StragglerAfter: -1})
	if err == nil || !strings.Contains(err.Error(), "no-such-workload") {
		t.Fatalf("RunPoints = %v, want the point's configuration error", err)
	}
}

// TestOutcomeBenchFormat checks the benchgate artifact round-trips through
// the same line shapes benchgate parses.
func TestOutcomeBenchFormat(t *testing.T) {
	points := smallGrid(t)[:1]
	out, err := RunPoints("fmt", points, 0, Options{Workers: 1, StragglerAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"BenchmarkSweepPoint/matrix/none 1 ", "BenchmarkSweepGrid/fmt 1 ", " windows/s", " maxprocs", "# digest matrix/none "} {
		if !strings.Contains(text, want) {
			t.Errorf("bench artifact missing %q:\n%s", want, text)
		}
	}
	var tbl bytes.Buffer
	if err := out.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "aggregate windows/s") {
		t.Errorf("table missing aggregate line:\n%s", tbl.String())
	}
}
