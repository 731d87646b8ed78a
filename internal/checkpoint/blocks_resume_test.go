package checkpoint_test

// Checkpoints must carry no translated-block state, so a checkpoint is
// interchangeable between the block-dispatch kernel and the per-cycle
// interpreter reference (StepOne), and a resume starts from a cold block
// cache mid-hot-loop and still reproduces the interpreter's golden digest
// bit-for-bit.

import (
	"testing"

	"thermemu/internal/checkpoint"
	"thermemu/internal/emu"
	"thermemu/internal/golden"
	"thermemu/internal/workloads"
)

func buildBlocksCase(t *testing.T) *emu.Platform {
	t.Helper()
	p := emu.MustNew(emu.DefaultConfig(2))
	spec, err := workloads.Matrix(2, 4, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	loadSpec(t, p, spec)
	return p
}

// stepWindow advances one digest window with the block-dispatch kernel
// (interp false) or the per-cycle interpreter reference (interp true).
func stepWindow(p *emu.Platform, interp bool) {
	if !interp {
		stepDigestWindow(p)
		return
	}
	end := p.VPCM.Cycle() + matrixEvery
	if end > matrixMax {
		end = matrixMax
	}
	for p.VPCM.Cycle() < end && !p.AllHalted() {
		p.StepOne()
	}
}

func TestResumeBlocksColdCache(t *testing.T) {
	// Reference: the uninterrupted per-cycle interpreter run.
	straight := golden.New()
	ref := buildBlocksCase(t)
	for ref.VPCM.Cycle() < matrixMax && !ref.AllHalted() {
		stepWindow(ref, true)
		emu.DigestSnapshot(straight, ref.Snapshot())
	}
	ref.DigestInto(straight)

	// Checkpointed run with block dispatch: capture a checkpoint and the
	// digest accumulator at every window boundary. Windows land mid-loop, so
	// the blocks are hot at every capture point.
	type point struct {
		ck  *checkpoint.Checkpoint
		sum uint64
		n   int
	}
	var pts []point
	tr := golden.New()
	q := buildBlocksCase(t)
	for q.VPCM.Cycle() < matrixMax && !q.AllHalted() {
		stepDigestWindow(q)
		emu.DigestSnapshot(tr, q.Snapshot())
		sum, n := tr.State()
		pts = append(pts, point{checkpoint.FromPlatform(q), sum, n})
	}
	q.DigestInto(tr)
	if tr.Sum64() != straight.Sum64() || tr.Len() != straight.Len() {
		t.Fatalf("blocks straight run digest %s/%d != interpreter %s/%d",
			tr.Hex(), tr.Len(), straight.Hex(), straight.Len())
	}
	if len(pts) < 3 {
		t.Fatalf("workload too short: %d windows", len(pts))
	}

	// Resume the mid-run checkpoint under both stepping flavours: the
	// stream holds no translated state, so the block kernel restarts from a
	// cold cache and the interpreter from exactly the same bits.
	mid := pts[len(pts)/2]
	for _, interp := range []bool{false, true} {
		ck, err := checkpoint.Decode(checkpoint.Encode(mid.ck))
		if err != nil {
			t.Fatalf("interp=%v: decode: %v", interp, err)
		}
		r := buildBlocksCase(t)
		if err := ck.Apply(r); err != nil {
			t.Fatalf("interp=%v: apply: %v", interp, err)
		}
		rtr := golden.New()
		if err := rtr.Seed(mid.sum, mid.n); err != nil {
			t.Fatal(err)
		}
		for r.VPCM.Cycle() < matrixMax && !r.AllHalted() {
			stepWindow(r, interp)
			emu.DigestSnapshot(rtr, r.Snapshot())
		}
		r.DigestInto(rtr)
		if rtr.Sum64() != straight.Sum64() || rtr.Len() != straight.Len() {
			t.Errorf("resume with interp=%v: digest %s/%d, want %s/%d",
				interp, rtr.Hex(), rtr.Len(), straight.Hex(), straight.Len())
		}
	}
}
