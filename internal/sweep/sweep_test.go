package sweep

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
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

// TestWireRoundTrip pushes a multi-chunk job (a fake warm-up checkpoint
// as its blob) through a loopback endpoint pair and checks it reassembles
// bit-identically, with the header fields and the raw blob intact.
func TestWireRoundTrip(t *testing.T) {
	devTr, coordTr := etherlink.LoopbackPair(256)
	link := (&Options{}).sweepLink()
	worker := newEndpoint(devTr, false, link)
	coord := newEndpoint(coordTr, true, link)
	defer devTr.Close()
	defer coordTr.Close()

	warmup := make([]byte, 4*etherlink.MaxPayload+123)
	for i := range warmup {
		warmup[i] = byte(i * 31)
	}
	sent := &wireMsg{Type: "job", ID: 7, WarmupKey: "k7", Warmup: warmup, Points: []jobPoint{
		{ID: 7, Name: "p7", Scenario: "thermemu-scenario v1\n"},
		{ID: 9, Name: "p9", Scenario: "thermemu-scenario v1\n[tm]\npolicy = threshold-dfs\n"},
	}}

	errc := make(chan error, 1)
	go func() { errc <- sendMsg(worker, sent) }()
	got, err := recvMsg(coord)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got.Type != "job" || got.ID != 7 || !reflect.DeepEqual(got.Points, sent.Points) || got.WarmupKey != "k7" {
		t.Fatalf("round trip mangled header: %s %d %+v %s", got.Type, got.ID, got.Points, got.WarmupKey)
	}
	if !bytes.Equal(got.Warmup, warmup) {
		t.Fatalf("round trip mangled the %d-byte warmup payload", len(warmup))
	}
	// The blob travels raw: the frames carry it plus a small header, not
	// its base64 expansion.
	if n := coord.LinkStats().FramesRecv.Load(); n != uint64(len(warmup)/etherlink.MaxPayload+1) {
		t.Errorf("a %d-byte blob took %d frames", len(warmup), n)
	}

	// A message without a blob decodes with a nil Warmup.
	go func() { errc <- sendMsg(worker, &wireMsg{Type: "ready", Worker: "w0", Have: "k7"}) }()
	if got, err = recvMsg(coord); err != nil || got.Have != "k7" || got.Warmup != nil {
		t.Fatalf("ready round trip = %+v, %v", got, err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestWireRejectsOversizedMessage checks both size bounds over a real
// endpoint pair: a prefix declaring more than maxMsgBytes fails on the
// first frame, and non-final chunks streamed past a declared length fail
// at the chunk that overruns it rather than being buffered.
func TestWireRejectsOversizedMessage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		first  []byte
		more   int
		errSub string
	}{
		{"declared over the cap", prefixed(wireVersion, maxMsgBytes, 1, ""), 0, "exceeds"},
		{"chunks past the declared length", prefixed(wireVersion, 15, 4000, `{"type":"job"}`), 4, "runs past"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			devTr, coordTr := etherlink.LoopbackPair(256)
			link := (&Options{}).sweepLink()
			worker := newEndpoint(devTr, false, link)
			coord := newEndpoint(coordTr, true, link)

			tc.first[0] = 0
			chunk := append([]byte{0}, bytes.Repeat([]byte{'x'}, etherlink.MaxPayload-1)...)
			done := make(chan struct{})
			go func() {
				defer close(done)
				if worker.Send(etherlink.MsgSweep, tc.first) != nil {
					return
				}
				for i := 0; i < tc.more; i++ {
					if worker.Send(etherlink.MsgSweep, chunk) != nil {
						return // the transports closed under a blocked send
					}
				}
			}()
			_, err := recvMsg(coord)
			devTr.Close()
			coordTr.Close()
			<-done
			if err == nil || !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("recv = %v, want an error containing %q", err, tc.errSub)
			}
		})
	}
}

// TestAssemblerBounds pins the receiver's allocation contract: it allocates
// exactly the declared length once, errors on an oversized declaration
// before allocating anything, rejects a short final chunk, and names both
// versions when the peer speaks another one.
func TestAssemblerBounds(t *testing.T) {
	blob := bytes.Repeat([]byte{0xA5}, 3*etherlink.MaxPayload)
	payloads, err := encode(&wireMsg{Type: "job", Points: []jobPoint{{Name: "p"}}, WarmupKey: "k", Warmup: blob})
	if err != nil {
		t.Fatal(err)
	}
	var a assembler
	var declared int
	for i, p := range payloads {
		m, err := a.add(p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			h, b, _ := readPrefix(p[1:])
			declared = h + b
		}
		if cap(a.buf) != declared {
			t.Fatalf("after chunk %d the assembler holds %d bytes of capacity, declared %d", i, cap(a.buf), declared)
		}
		if (m != nil) != (i == len(payloads)-1) {
			t.Fatalf("chunk %d of %d: message %v", i, len(payloads), m)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = (&assembler{}).add(prefixed(wireVersion, maxMsgBytes/2+1, maxMsgBytes/2, ""))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized declaration = %v, want the size-cap error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting an oversized declaration allocated %d bytes", grew)
	}

	if _, err := (&assembler{}).add(prefixed(wireVersion, 15, 5, `{"type":"done"}`)); err == nil || !strings.Contains(err.Error(), "ends at 15 of its declared 20") {
		t.Errorf("short final chunk = %v, want the truncation error", err)
	}
	for _, tc := range []struct {
		payload []byte
		want    string
	}{
		{prefixed(2, 15, 0, `{"type":"done"}`), "wire version 2, this side speaks version 3"},
		{prefixed(4, 15, 0, `{"type":"done"}`), "wire version 4, this side speaks version 3"},
		{[]byte("\x01{\"type\":\"done\"}"), "wire version 1, this side speaks version 3"},
	} {
		if _, err := (&assembler{}).add(tc.payload); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("payload %q = %v, want an error containing %q", tc.payload[:4], err, tc.want)
		}
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

// TestSweepSecondReadyRequeues: a worker that sends ready again while it
// holds an unanswered job breaks the alternating exchange. Its session
// ends with an error and its point is re-queued, and with stealing off an
// honest worker still finishes the grid with the serial digests.
func TestSweepSecondReadyRequeues(t *testing.T) {
	points := smallGrid(t)[:2]
	ref := serialDigests(t, points)
	c := NewCoordinator(points, Options{StragglerAfter: -1})

	rogueTr, coordTr := etherlink.LoopbackPair(256)
	rogueSess := make(chan error, 1)
	go func() { rogueSess <- c.ServeSession(coordTr) }()
	rogue := newEndpoint(rogueTr, false, c.opt.sweepLink())
	if err := sendMsg(rogue, &wireMsg{Type: "ready", Worker: "rogue"}); err != nil {
		t.Fatal(err)
	}
	if m, err := recvMsg(rogue); err != nil || m.Type != "job" {
		t.Fatalf("first reply to the rogue = %+v, %v; want a job", m, err)
	}

	devTr, coordTr2 := etherlink.LoopbackPair(256)
	go (&Worker{Name: "honest"}).Serve(devTr)
	honestSess := make(chan error, 1)
	go func() { honestSess <- c.ServeSession(coordTr2) }()

	if err := sendMsg(rogue, &wireMsg{Type: "ready", Worker: "rogue"}); err != nil {
		t.Fatal(err)
	}
	// The rogue stays on the link and answers the coordinator's solicits,
	// so only the protocol check can end its session.
	go func() {
		for {
			if _, err := recvMsg(rogue); err != nil {
				return
			}
		}
	}()
	timeout := time.After(30 * time.Second)
	select {
	case err := <-rogueSess:
		if err == nil || !strings.Contains(err.Error(), "ready while") {
			t.Fatalf("rogue session ended with %v, want the second-ready error", err)
		}
	case <-timeout:
		t.Fatal("the session of a worker that sent ready twice never ended")
	}
	select {
	case err := <-honestSess:
		if err != nil {
			t.Fatal(err)
		}
	case <-timeout:
		t.Fatal("the grid never finished")
	}
	out, err := c.outcome("second-ready", 2, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, "second-ready", out, ref)
	if out.SessionFailures != 1 {
		t.Errorf("%d session failures, want 1", out.SessionFailures)
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

// stallTransport is a worker link that stays open but goes silent: once
// the first frame from the coordinator arrives, everything the worker
// sends is dropped without an error.
type stallTransport struct {
	etherlink.Transport
	once    sync.Once
	stalled chan struct{}
}

func newStallTransport(tr etherlink.Transport) *stallTransport {
	return &stallTransport{Transport: tr, stalled: make(chan struct{})}
}

func (s *stallTransport) Recv() ([]byte, error) {
	b, err := s.Transport.Recv()
	if err == nil {
		s.once.Do(func() { close(s.stalled) })
	}
	return b, err
}

func (s *stallTransport) silent() bool {
	select {
	case <-s.stalled:
		return true
	default:
		return false
	}
}

func (s *stallTransport) Send(b []byte) error {
	if s.silent() {
		return nil
	}
	return s.Transport.Send(b)
}

func (s *stallTransport) TrySend(b []byte) (bool, error) {
	if s.silent() {
		return true, nil
	}
	return s.Transport.TrySend(b)
}

// TestSweepSilentWorkerRequeues: a worker whose link stays open but stops
// sending mid-job is declared dead within the session's idle budget
// (RetryTimeout x (MaxRetries+1)), with no deadline beyond the reliable
// endpoint's own, and its point is re-queued and finished by a second
// worker with the serial digest.
func TestSweepSilentWorkerRequeues(t *testing.T) {
	points := smallGrid(t)[:1]
	ref := serialDigests(t, points)
	link := etherlink.ReliableConfig{RetryTimeout: 10 * time.Millisecond, MaxRetries: 5}
	budget := time.Duration(link.MaxRetries+1) * link.RetryTimeout
	c := NewCoordinator(points, Options{StragglerAfter: -1, Link: link})

	devTr, coordTr := etherlink.LoopbackPair(256)
	silent := newStallTransport(devTr)
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		(&Worker{Name: "silent", Link: c.opt.sweepLink()}).Serve(silent)
	}()
	sessDone := make(chan error, 1)
	go func() { sessDone <- c.ServeSession(coordTr) }()

	var dead time.Duration
	select {
	case <-silent.stalled:
		start := time.Now()
		select {
		case err := <-sessDone:
			dead = time.Since(start)
			if !errors.Is(err, etherlink.ErrLinkStalled) {
				t.Fatalf("silent session ended with %v, want %v", err, etherlink.ErrLinkStalled)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("silent session never declared dead")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the worker never received its job")
	}
	<-workerDone
	t.Logf("silent session declared dead %v after the stall (budget %v)", dead, budget)
	// Timers on a loaded host fire late: allow scheduling slack on top of
	// the budget, far below the 60 s sweep default.
	if slack := 250 * time.Millisecond; dead > budget+slack {
		t.Errorf("silent session declared dead after %v, budget %v (+%v slack)", dead, budget, slack)
	}
	c.mu.Lock()
	requeued, fails := len(c.pending), c.sessFails
	c.mu.Unlock()
	if requeued != 1 || fails != 1 {
		t.Fatalf("after the silent session: %d point(s) queued, %d session failure(s); want 1 and 1", requeued, fails)
	}

	// The healthy worker computes between messages for longer than the
	// short budget allows under -race, so its session takes the default.
	c.opt.Link = etherlink.ReliableConfig{}
	devTr2, coordTr2 := etherlink.LoopbackPair(256)
	go (&Worker{Name: "healthy"}).Serve(devTr2)
	if err := c.ServeSession(coordTr2); err != nil {
		t.Fatal(err)
	}
	out, err := c.outcome("silent", 2, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, "silent-worker", out, ref)
}

// TestSweepUnheldWarmupRequeues covers a job naming a warm-up the worker
// does not hold and carrying no bytes. The coordinator omits the bytes
// only for the key a worker reports holding; a peer that reports a key it
// does not hold ends its session, the point is re-queued, and the next
// worker is sent the checkpoint and finishes with the warmed digest.
func TestSweepUnheldWarmupRequeues(t *testing.T) {
	const prefix = 8
	points := smallGrid(t)[:1]
	ck, err := CutWarmup(points[0].Scenario, prefix)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunPoint(points[0].Scenario, ck)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(points, Options{StragglerAfter: -1})
	if _, err := c.CutWarmups(prefix, 1); err != nil {
		t.Fatal(err)
	}
	key := c.groups[0].warmup.id

	// A peer claiming to hold the key is sent the job without the bytes.
	link := c.opt.sweepLink()
	devTr, coordTr := etherlink.LoopbackPair(256)
	sessDone := make(chan error, 1)
	go func() { sessDone <- c.ServeSession(coordTr) }()
	liar := newEndpoint(devTr, false, link)
	if err := sendMsg(liar, &wireMsg{Type: "ready", Worker: "liar", Have: key}); err != nil {
		t.Fatal(err)
	}
	job, err := recvMsg(liar)
	if err != nil {
		t.Fatal(err)
	}
	if job.Type != "job" || job.WarmupKey != key || job.Warmup != nil {
		t.Fatalf("job for a worker holding %s = %s with key %q and %d checkpoint bytes, want the key without bytes",
			key, job.Type, job.WarmupKey, len(job.Warmup))
	}

	// A real worker handed that job ends its session with an error.
	wTr, cTr := etherlink.LoopbackPair(256)
	serveErr := make(chan error, 1)
	go func() { serveErr <- (&Worker{Name: "w"}).Serve(wTr) }()
	fake := newEndpoint(cTr, true, link)
	if m, err := recvMsg(fake); err != nil || m.Type != "ready" || m.Have != "" {
		t.Fatalf("first message = %+v, %v; want ready holding nothing", m, err)
	}
	if err := sendMsg(fake, job); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Fatalf("Serve on an unheld warm-up key = %v, want the does-not-hold error", err)
	}
	cTr.Close()

	// The liar's session dies the same way; the point goes back to the
	// queue and a fresh worker, holding nothing, gets the bytes.
	devTr.Close()
	<-sessDone
	devTr2, coordTr2 := etherlink.LoopbackPair(256)
	go (&Worker{Name: "fresh"}).Serve(devTr2)
	if err := c.ServeSession(coordTr2); err != nil {
		t.Fatal(err)
	}
	out, err := c.outcome("unheld", 2, 0, 0, prefix, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, "unheld", out, map[string]string{points[0].Name: want.Digest})
	if out.SessionFailures != 1 || out.WarmupSends != 1 {
		t.Errorf("session failures %d, checkpoint sends %d; want 1 and 1", out.SessionFailures, out.WarmupSends)
	}
}
