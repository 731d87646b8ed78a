package asm

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestImageLayout pins how emissions become sections: later writes win,
// runs join across page boundaries, far .org blocks stay separate, and a
// pc that wraps past 2^32 continues at address 0.
func TestImageLayout(t *testing.T) {
	cases := []struct {
		name, src string
		want      []Section
	}{
		{"empty", "", nil},
		{"space", ".space 16", []Section{{0, make([]byte, 16)}}},
		{"align pads from org", ".org 0x100\n.byte 1\n.align 0x100\n.byte 2",
			[]Section{{0x100, append(append([]byte{1}, make([]byte, 0xFF)...), 2)}}},
		{"align on boundary emits nothing", ".org 0x40\n.align 0x40\n.byte 9", []Section{{0x40, []byte{9}}}},
		{"later write wins", ".word 0x11111111\n.org 1\n.byte 0xAA", []Section{{0, []byte{0x11, 0xAA, 0x11, 0x11}}}},
		{"run crosses a page", ".org 0xFE\n.word 0x04030201", []Section{{0xFE, []byte{1, 2, 3, 4}}}},
		{"far blocks", ".byte 1\n.org 0x10000000\n.byte 2", []Section{{0, []byte{1}}, {0x10000000, []byte{2}}}},
		{"pc wraps past 2^32", ".org 0xFFFFFFFE\n.byte 1, 2, 3, 4",
			[]Section{{0, []byte{3, 4}}, {0xFFFFFFFE, []byte{1, 2}}}},
		{"align wraps to 0", ".org 0xFFFFFFFD\n.align 4\n.byte 7",
			[]Section{{0, []byte{7}}, {0xFFFFFFFD, []byte{0, 0, 0}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			im, err := Assemble(c.src)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprint(im.Sections), fmt.Sprint(c.want); got != want {
				t.Fatalf("sections %s, want %s", got, want)
			}
			for i, s := range im.Sections {
				if cap(s.Data) != len(s.Data) {
					t.Errorf("section %d: cap %d > len %d", i, cap(s.Data), len(s.Data))
				}
			}
		})
	}
}

// TestImageCap holds emission to MaxImageBytes: reaching the cap is fine,
// passing it is an *Error on the offending line, and overwrites count.
func TestImageCap(t *testing.T) {
	cases := []struct {
		name, src string
		errLine   int // 0: assembles
	}{
		{"space at the cap", fmt.Sprintf(".space %#x", MaxImageBytes), 0},
		{"space past the cap", fmt.Sprintf(".space %#x", MaxImageBytes+1), 1},
		{"instruction then space", fmt.Sprintf("nop\n.space %#x", MaxImageBytes-3), 2},
		{"align past the cap", ".byte 1\n.align 0x80000000", 2},
		{"overwrites count", fmt.Sprintf(".space %#x\n.org 0\n.space %#x\n.org 0\n.byte 1",
			MaxImageBytes/2, MaxImageBytes/2), 5},
		{"word past the cap", fmt.Sprintf(".space %#x\n.word 1", MaxImageBytes-3), 2},
		{"ascii past the cap", fmt.Sprintf(".space %#x\n.ascii \"ab\"", MaxImageBytes-1), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			im, err := Assemble(c.src)
			if c.errLine == 0 {
				if err != nil {
					t.Fatal(err)
				}
				if im.End() != MaxImageBytes {
					t.Errorf("End() = %#x, want %#x", im.End(), MaxImageBytes)
				}
				return
			}
			var ae *Error
			if !errors.As(err, &ae) || ae.Line != c.errLine || !strings.Contains(ae.Msg, "image would exceed") {
				t.Fatalf("err = %v, want an *Error on line %d about the image cap", err, c.errLine)
			}
		})
	}
}

// TestHugeSpaceFailsFast: a scenario-sized source asking for 64 MiB is
// refused before any of it is allocated.
func TestHugeSpaceFailsFast(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Assemble("nop\n.space 0x4000000\nhalt")
	runtime.ReadMemStats(&after)
	var ae *Error
	if !errors.As(err, &ae) || ae.Line != 2 {
		t.Fatalf("err = %v, want an *Error on line 2", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting the source allocated %d bytes", grew)
	}
}

// checkSections asserts the image invariants every accepted source keeps:
// sections are non-empty, in ascending address order, neither touching nor
// overlapping, inside the 32-bit address space, capped at their length, and
// no more bytes than MaxImageBytes in total.
func checkSections(t *testing.T, im *Image) {
	t.Helper()
	var total, end uint64
	for i, s := range im.Sections {
		lo, hi := uint64(s.Addr), uint64(s.Addr)+uint64(len(s.Data))
		switch {
		case len(s.Data) == 0:
			t.Fatalf("section %d is empty", i)
		case i > 0 && lo <= end:
			t.Fatalf("section %d at %#x does not start past the previous end %#x", i, lo, end)
		case hi > 1<<32:
			t.Fatalf("section %d overflows the address space", i)
		case cap(s.Data) != len(s.Data):
			t.Fatalf("section %d: cap %d > len %d", i, cap(s.Data), len(s.Data))
		}
		end = hi
		total += uint64(len(s.Data))
	}
	if total > MaxImageBytes {
		t.Fatalf("image holds %d bytes, cap %d", total, MaxImageBytes)
	}
}
