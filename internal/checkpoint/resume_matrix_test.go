package checkpoint_test

// The differential resume matrix: for the committed golden workloads on
// both interconnects, a run resumed from any window-boundary checkpoint
// must produce a final golden digest (and record count) bit-identical to
// the uninterrupted run's. The checkpointed run replays the exact RunDigest
// window boundaries, so the straight digest is computed through the public
// API the golden-file suite uses.

import (
	"testing"

	"thermemu/internal/checkpoint"
	"thermemu/internal/emu"
	"thermemu/internal/golden"
	"thermemu/internal/workloads"
)

const (
	matrixEvery = 256
	matrixMax   = 2_000_000
)

// matrixCase is one cell of the workload × interconnect grid.
type matrixCase struct {
	name  string
	cores int
	spec  func(cores int) (*workloads.Spec, error)
	noc   bool
}

func matrixCases() []matrixCase {
	mk := func(f func(int) (*workloads.Spec, error)) func(int) (*workloads.Spec, error) { return f }
	matrix := mk(func(c int) (*workloads.Spec, error) { return workloads.Matrix(c, 4, 2, 64) })
	dither := mk(func(c int) (*workloads.Spec, error) { return workloads.Dithering(c, 8) })
	locks := mk(func(c int) (*workloads.Spec, error) { return workloads.Locks(c, 6) })
	return []matrixCase{
		{"matrix-bus", 2, matrix, false},
		{"matrix-noc", 2, matrix, true},
		{"dithering-bus", 2, dither, false},
		{"dithering-noc", 2, dither, true},
		{"locks-bus", 2, locks, false},
		{"locks-noc", 2, locks, true},
	}
}

func buildCase(t *testing.T, mc matrixCase) *emu.Platform {
	t.Helper()
	cfg := emu.DefaultConfig(mc.cores)
	if mc.noc {
		cfg.IC = emu.ICNoC
		cfg.NoC = emu.Table3NoC(mc.cores)
	}
	p := emu.MustNew(cfg)
	spec, err := mc.spec(mc.cores)
	if err != nil {
		t.Fatal(err)
	}
	loadSpec(t, p, spec)
	return p
}

// stepDigestWindow advances one digest window exactly as RunDigest does,
// so manually-driven traces share its boundaries.
func stepDigestWindow(p *emu.Platform) {
	n := uint64(matrixEvery)
	if left := uint64(matrixMax) - p.VPCM.Cycle(); n > left {
		n = left
	}
	p.Step(n)
}

func TestResumeMatrixDigestIdentity(t *testing.T) {
	for _, mc := range matrixCases() {
		mc := mc
		t.Run(mc.name+"/serial", func(t *testing.T) {
			t.Parallel()
			// Uninterrupted run through the public digest API.
			straight := golden.New()
			p := buildCase(t, mc)
			p.RunDigest(matrixMax, matrixEvery, straight)

			// Checkpointed run: same boundaries, a checkpoint plus the
			// golden accumulator captured at every one.
			type point struct {
				ck  *checkpoint.Checkpoint
				sum uint64
				n   int
			}
			var pts []point
			tr := golden.New()
			q := buildCase(t, mc)
			for q.VPCM.Cycle() < matrixMax && !q.AllHalted() {
				stepDigestWindow(q)
				emu.DigestSnapshot(tr, q.Snapshot())
				sum, n := tr.State()
				pts = append(pts, point{checkpoint.FromPlatform(q), sum, n})
			}
			q.DigestInto(tr)
			if tr.Sum64() != straight.Sum64() || tr.Len() != straight.Len() {
				t.Fatalf("checkpointed run digest %s/%d != straight %s/%d",
					tr.Hex(), tr.Len(), straight.Hex(), straight.Len())
			}
			if len(pts) < 3 {
				t.Fatalf("workload too short for the resume matrix: %d windows", len(pts))
			}

			// Resume from the first, middle and last-but-one boundary,
			// round-tripping through the binary codec as a process
			// restart would.
			for _, wi := range []int{0, len(pts) / 2, len(pts) - 2} {
				pt := pts[wi]
				ck, err := checkpoint.Decode(checkpoint.Encode(pt.ck))
				if err != nil {
					t.Fatalf("window %d: decode: %v", wi+1, err)
				}
				r := buildCase(t, mc)
				if err := ck.Apply(r); err != nil {
					t.Fatalf("window %d: apply: %v", wi+1, err)
				}
				rtr := golden.New()
				if err := rtr.Seed(pt.sum, pt.n); err != nil {
					t.Fatal(err)
				}
				for r.VPCM.Cycle() < matrixMax && !r.AllHalted() {
					stepDigestWindow(r)
					emu.DigestSnapshot(rtr, r.Snapshot())
				}
				r.DigestInto(rtr)
				if rtr.Sum64() != straight.Sum64() || rtr.Len() != straight.Len() {
					t.Errorf("resume from window %d: digest %s/%d, want %s/%d",
						wi+1, rtr.Hex(), rtr.Len(), straight.Hex(), straight.Len())
				}
			}
		})
	}
}
