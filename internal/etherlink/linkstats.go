package etherlink

import (
	"fmt"
	"sync/atomic"
	"time"
)

// latencyBoundsUs are the upper edges (inclusive, microseconds) of the
// round-trip latency histogram buckets; observations above the last edge
// land in the overflow bucket.
var latencyBoundsUs = [...]uint64{50, 100, 200, 500, 1_000, 2_000, 5_000,
	10_000, 20_000, 50_000, 100_000, 500_000}

// LinkStats aggregates link-layer activity. Every field is atomic: one
// LinkStats may be shared by several endpoints and goroutines (e.g. all the
// connections a server accepts) and snapshotted while traffic flows.
type LinkStats struct {
	FramesSent atomic.Uint64
	FramesRecv atomic.Uint64
	BytesSent  atomic.Uint64
	BytesRecv  atomic.Uint64

	Retries     atomic.Uint64 // recv stalls that triggered a re-solicit
	SeqGaps     atomic.Uint64 // frames that arrived ahead of the expected seq
	CRCErrors   atomic.Uint64 // frames rejected for CRC/parse failures
	DupFrames   atomic.Uint64 // duplicate frames dropped
	DstMismatch atomic.Uint64 // frames addressed to another MAC
	NacksSent   atomic.Uint64
	NacksRecv   atomic.Uint64
	Resent      atomic.Uint64 // frames retransmitted from the resend window

	Congestions atomic.Uint64 // TrySend rejections that froze the virtual clock
	FrozenPhys  atomic.Uint64 // physical cycles spent frozen on the link

	// Dispatcher traffic: sampling windows shipped in statistics messages
	// and answered by temperature messages.
	WindowsSent     atomic.Uint64
	WindowsAnswered atomic.Uint64

	latBuckets [len(latencyBoundsUs) + 1]atomic.Uint64
	latCount   atomic.Uint64
	latSumUs   atomic.Uint64
	latMaxUs   atomic.Uint64
}

// ObserveLatency records one request/response round trip (e.g. the
// statistics-out/temperatures-back exchange of a sampling window).
func (s *LinkStats) ObserveLatency(d time.Duration) {
	if d < 0 {
		return
	}
	us := uint64(d / time.Microsecond)
	i := 0
	for i < len(latencyBoundsUs) && us > latencyBoundsUs[i] {
		i++
	}
	s.latBuckets[i].Add(1)
	s.latCount.Add(1)
	s.latSumUs.Add(us)
	for {
		cur := s.latMaxUs.Load()
		if us <= cur || s.latMaxUs.CompareAndSwap(cur, us) {
			return
		}
	}
}

// LatencyBucket is one histogram bin of a snapshot. LeUs is the inclusive
// upper edge in microseconds; 0 marks the overflow bucket.
type LatencyBucket struct {
	LeUs  uint64 `json:"le_us"`
	Count uint64 `json:"count"`
}

// LinkSnapshot is a point-in-time copy of LinkStats, JSON-encodable for the
// thermserver metrics endpoint and the thermemu report.
type LinkSnapshot struct {
	FramesSent  uint64 `json:"frames_sent"`
	FramesRecv  uint64 `json:"frames_recv"`
	BytesSent   uint64 `json:"bytes_sent"`
	BytesRecv   uint64 `json:"bytes_recv"`
	Retries     uint64 `json:"retries"`
	SeqGaps     uint64 `json:"seq_gaps"`
	CRCErrors   uint64 `json:"crc_errors"`
	DupFrames   uint64 `json:"dup_frames"`
	DstMismatch uint64 `json:"dst_mismatch"`
	NacksSent   uint64 `json:"nacks_sent"`
	NacksRecv   uint64 `json:"nacks_recv"`
	Resent      uint64 `json:"resent"`
	Congestions uint64 `json:"congestions"`
	FrozenPhys  uint64 `json:"frozen_phys_cycles"`

	WindowsSent     uint64 `json:"windows_sent"`
	WindowsAnswered uint64 `json:"windows_answered"`

	LatencyCount  uint64          `json:"latency_count"`
	LatencyMeanUs float64         `json:"latency_mean_us"`
	LatencyMaxUs  uint64          `json:"latency_max_us"`
	Latency       []LatencyBucket `json:"latency_hist,omitempty"`
}

// Snapshot copies the counters.
func (s *LinkStats) Snapshot() LinkSnapshot {
	sn := LinkSnapshot{
		FramesSent:  s.FramesSent.Load(),
		FramesRecv:  s.FramesRecv.Load(),
		BytesSent:   s.BytesSent.Load(),
		BytesRecv:   s.BytesRecv.Load(),
		Retries:     s.Retries.Load(),
		SeqGaps:     s.SeqGaps.Load(),
		CRCErrors:   s.CRCErrors.Load(),
		DupFrames:   s.DupFrames.Load(),
		DstMismatch: s.DstMismatch.Load(),
		NacksSent:   s.NacksSent.Load(),
		NacksRecv:   s.NacksRecv.Load(),
		Resent:      s.Resent.Load(),
		Congestions: s.Congestions.Load(),
		FrozenPhys:  s.FrozenPhys.Load(),

		WindowsSent:     s.WindowsSent.Load(),
		WindowsAnswered: s.WindowsAnswered.Load(),

		LatencyCount: s.latCount.Load(),
		LatencyMaxUs: s.latMaxUs.Load(),
	}
	if sn.LatencyCount > 0 {
		sn.LatencyMeanUs = float64(s.latSumUs.Load()) / float64(sn.LatencyCount)
	}
	for i := range s.latBuckets {
		n := s.latBuckets[i].Load()
		if n == 0 {
			continue
		}
		le := uint64(0) // overflow bucket
		if i < len(latencyBoundsUs) {
			le = latencyBoundsUs[i]
		}
		sn.Latency = append(sn.Latency, LatencyBucket{LeUs: le, Count: n})
	}
	return sn
}

// String formats the snapshot as a compact human-readable summary.
func (sn LinkSnapshot) String() string {
	return fmt.Sprintf(
		"tx %d frames/%d B, rx %d frames/%d B; retries %d, gaps %d, crc %d, dups %d, nacks %d/%d, resent %d, congestions %d; rtt mean %.0f us max %d us (%d obs)",
		sn.FramesSent, sn.BytesSent, sn.FramesRecv, sn.BytesRecv,
		sn.Retries, sn.SeqGaps, sn.CRCErrors, sn.DupFrames,
		sn.NacksSent, sn.NacksRecv, sn.Resent, sn.Congestions,
		sn.LatencyMeanUs, sn.LatencyMaxUs, sn.LatencyCount)
}
