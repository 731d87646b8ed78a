package thermal

// ellSubstepAVX2 is the AVX2 kernel body (ell_amd64.s): substepGo's
// operation sequence on the four lanes of a slice at once, one 256-bit
// vector per step. It uses no FMA instruction.
//
//go:noescape
func ellSubstepAVX2(k *ellKernel, h float64, lo, hi int) (stale bool)

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (which state the OS saves).
func xgetbv0() (eax uint32)

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// registers across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	if xgetbv0()&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func init() {
	if hasAVX2() {
		avx2Body = ellSubstepAVX2
	}
}
