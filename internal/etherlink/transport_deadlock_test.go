package etherlink

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSendAfterWriterDeathDoesNotDeadlock is the regression test for the
// writer-death deadlock: Send used to check the stored write error BEFORE
// enqueueing, so a send racing the writer goroutine's death parked forever
// on a channel nobody drains. The fixed transport signals writer death and
// surfaces the stored error instead.
//
// The sequence is deterministic: with an unbuffered queue over a net.Pipe,
// the first Send hands its frame straight to the writer, which blocks
// writing into the unread pipe; the second Send passes the error check
// (the writer has not failed yet) and parks on the queue; closing the peer
// then kills the writer, and only the death signal can unpark the send.
func TestSendAfterWriterDeathDoesNotDeadlock(t *testing.T) {
	dev, host := net.Pipe()
	tr := NewTCP(dev, 0)
	defer tr.Close()

	first := make(chan error, 1)
	go func() { first <- tr.Send([]byte("frame-1")) }()
	time.Sleep(20 * time.Millisecond) // writer now blocked in conn.Write

	second := make(chan error, 1)
	go func() { second <- tr.Send([]byte("frame-2")) }()
	time.Sleep(20 * time.Millisecond) // second send parked on the queue

	host.Close() // writer's blocked write fails; the writer dies

	select {
	case err := <-second:
		if err == nil {
			t.Fatal("send racing writer death reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("deadlock: Send never returned after the writer died")
	}
	// The first frame was accepted before the link died; either outcome
	// (nil from the pre-death enqueue, or the surfaced write error) is
	// fine — it must just return.
	select {
	case <-first:
	case <-time.After(2 * time.Second):
		t.Fatal("first Send never returned")
	}
	// Later sends fail fast with the stored error.
	if err := tr.Send([]byte("frame-3")); err == nil {
		t.Fatal("send after writer death succeeded")
	}
}

// TestTrySendAfterWriterDeath verifies the non-blocking path also surfaces
// writer death instead of silently queueing frames nobody will write.
func TestTrySendAfterWriterDeath(t *testing.T) {
	dev, host := net.Pipe()
	tr := NewTCP(dev, 4)
	defer tr.Close()

	host.Close()
	// Push frames until the write error propagates; the writer may accept
	// one frame into the race window, but must fail promptly after.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := tr.TrySend([]byte("x")); err != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("TrySend kept accepting frames after the writer died")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseReportsStrandedFrames verifies Close surfaces the number of
// queued frames the dead writer never delivered, wrapped around the write
// error that killed it.
func TestCloseReportsStrandedFrames(t *testing.T) {
	dev, host := net.Pipe()
	tr := NewTCP(dev, 8)

	host.Close()
	// Queue frames; the writer dies on the first write, stranding the rest.
	queued := 0
	for i := 0; i < 8; i++ {
		if err := tr.Send([]byte("frame")); err != nil {
			break
		}
		queued++
	}
	err := tr.Close()
	if queued > 1 {
		if err == nil {
			t.Fatalf("Close reported success with ~%d frames queued behind a dead writer", queued)
		}
		if !strings.Contains(err.Error(), "undelivered") {
			t.Errorf("Close error does not report stranded frames: %v", err)
		}
	}
}

// TestTCPSendCloseRace races many Sends against Close, over 20 fresh
// transports per run. A Send that returned nil queued its frame before the
// shutdown, so the Close flush must deliver it; a Send that got ErrClosed
// queued nothing, so its frame must never reach the peer.
func TestTCPSendCloseRace(t *testing.T) {
	for range 20 {
		raceSendClose(t)
	}
}

func raceSendClose(t *testing.T) {
	const senders = 8
	c1, c2 := net.Pipe()
	tr, peer := NewTCP(c1, 4), NewTCP(c2, 4)
	defer peer.Close()

	got := map[uint32]bool{}
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			f, err := peer.Recv()
			if err != nil {
				return
			}
			got[binary.LittleEndian.Uint32(f)] = true
		}
	}()

	var (
		wg       sync.WaitGroup
		accepted [senders][]uint32
		refused  [senders][]uint32
	)
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint32(0); ; i++ {
				id := uint32(s)<<24 | i
				err := tr.Send(binary.LittleEndian.AppendUint32(nil, id))
				switch {
				case err == nil:
					accepted[s] = append(accepted[s], id)
				case errors.Is(err, ErrClosed):
					refused[s] = append(refused[s], id)
					return
				default:
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}()
	}
	time.Sleep(time.Duration(rand.Intn(2000)) * time.Microsecond)
	if err := tr.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	wg.Wait()
	<-recvDone
	for s := range senders {
		for _, id := range accepted[s] {
			if !got[id] {
				t.Errorf("frame %#x: Send returned nil, but it never reached the peer", id)
			}
		}
		for _, id := range refused[s] {
			if got[id] {
				t.Errorf("frame %#x: Send returned ErrClosed, but it reached the peer", id)
			}
		}
	}
}

// TestRecvDeadline verifies the timeout plumbing of both transports: an
// expired deadline surfaces as ErrRecvTimeout and the link stays usable.
func TestRecvDeadline(t *testing.T) {
	check := func(t *testing.T, a, b Transport) {
		t.Helper()
		a.SetRecvDeadline(time.Now().Add(30 * time.Millisecond))
		if _, err := a.Recv(); !errors.Is(err, ErrRecvTimeout) {
			t.Fatalf("recv past deadline: %v, want ErrRecvTimeout", err)
		}
		// The link still works afterwards.
		if err := b.Send([]byte("late")); err != nil {
			t.Fatal(err)
		}
		a.SetRecvDeadline(time.Now().Add(time.Second))
		f, err := a.Recv()
		if err != nil || string(f) != "late" {
			t.Fatalf("recv after timeout: %q, %v", f, err)
		}
		a.SetRecvDeadline(time.Time{})
	}
	t.Run("loopback", func(t *testing.T) {
		dev, host := LoopbackPair(4)
		defer dev.Close()
		check(t, dev, host)
	})
	t.Run("tcp", func(t *testing.T) {
		c1, c2 := net.Pipe()
		a, b := NewTCP(c1, 4), NewTCP(c2, 4)
		defer a.Close()
		defer b.Close()
		check(t, a, b)
	})
}
