package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"thermemu/internal/asm"
	"thermemu/internal/workloads"
)

// imageHash is a short SHA-256 over everything an assembled image carries:
// entry point, every section's address and bytes, and the symbol table.
func imageHash(ims []*asm.Image) string {
	h := sha256.New()
	var w [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(w[:], v)
		h.Write(w[:])
	}
	for _, im := range ims {
		put(im.Entry)
		put(uint32(len(im.Sections)))
		for _, s := range im.Sections {
			put(s.Addr)
			put(uint32(len(s.Data)))
			h.Write(s.Data)
		}
		names := make([]string, 0, len(im.Symbols))
		for n := range im.Symbols {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "%s=%d;", n, im.Symbols[n])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// pinnedImages are the image hashes of every registered workload at its
// default parameters on 4 cores, and of every example scenario's programs
// (inline [program] sections, or its workload at the scenario's
// parameters). An assembler change must leave them all unchanged.
var pinnedImages = map[string]string{
	"example/dithering.scn":     "9ff947ca07922711b72a7079",
	"example/fir.scn":           "6b64460412bb74425fa287db",
	"example/histogram.scn":     "1fe39251c8aee61353620c9f",
	"example/inline.scn":        "5a78dcd7d6f6d36c063a7460",
	"example/locks.scn":         "6260da86d6233353e0be68d4",
	"example/matrix-tm.scn":     "cb950a34a2b38164cba64e8e",
	"example/matrix.scn":        "96da58af72a51e0e58907e94",
	"example/membound.scn":      "2ee06dc79a9571b52cb774d8",
	"example/noc-sustained.scn": "1b6df0efbc1c912892043350",
	"example/pipeline.scn":      "d37ebb0025678aa93c50757b",
	"workload/dithering":        "328f5a0fdad6ebc1747ed4f0",
	"workload/fir":              "ef500f5db200ab9d6ef582b7",
	"workload/histogram":        "1fe39251c8aee61353620c9f",
	"workload/locks":            "ece7d611af5c915961d1c9ea",
	"workload/matrix":           "bb356422060033f94bcaa0e5",
	"workload/matrix-tm":        "bb356422060033f94bcaa0e5",
	"workload/membound":         "6fd5a99e592733aaffc164d4",
	"workload/pipeline":         "d37ebb0025678aa93c50757b",
}

// TestAssembledImagesPinned holds every corpus and example-scenario image
// byte-identical to its pinned hash.
func TestAssembledImagesPinned(t *testing.T) {
	got := map[string]string{}
	for _, name := range workloads.Names() {
		spec, err := workloads.Build(name, workloads.Params{Cores: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got["workload/"+name] = imageHash(spec.Programs)
	}
	for _, path := range exampleScenarios(t) {
		s, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := s.Spec()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got["example/"+filepath.Base(path)] = imageHash(spec.Programs)
	}
	var lines []string
	for k, v := range got {
		if pinnedImages[k] != v {
			t.Errorf("%s: image hash %s, pinned %q", k, v, pinnedImages[k])
		}
		lines = append(lines, fmt.Sprintf("%q: %q,", k, v))
	}
	for k := range pinnedImages {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: pinned but no longer built", k)
		}
	}
	if t.Failed() {
		sort.Strings(lines)
		t.Logf("current hashes:\n%s", strings.Join(lines, "\n"))
	}
}
