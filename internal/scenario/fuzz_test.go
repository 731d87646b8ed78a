package scenario

import (
	"reflect"
	"testing"
)

// FuzzScenarioParse holds the parser to its two contracts: malformed input
// — truncated files, duplicate keys, binary garbage — errors cleanly
// instead of panicking, and any input the parser accepts survives a
// render/reparse round trip unchanged.
func FuzzScenarioParse(f *testing.F) {
	f.Add("")
	f.Add(Header)
	f.Add(Header + "\n[platform]\ncores = 4\nic = noc:ring:4\n")
	f.Add(Header + "\n[workload]\nname = fir\nwords = 32\n")
	f.Add(Header + "\n[program]\n\taddi r1, r0, 1\n\thalt\n")
	f.Add(Header + "\n[program 0]\nhalt\n[program 1]\nhalt\n")
	f.Add(Header + "\n[shared]\n0x8000 = 1 2 3\n")
	f.Add(Header + "\n[thermal]\nwindow-ms = 0.25\n[tm]\npolicy = threshold-dfs\n")
	f.Add(Header + "\n[fault]\nspec = drop=0.1\nseed = 3\n")
	f.Add(fullFile)
	f.Add(Header + "\n[platform]\ncores = 2\ncores = 2\n")
	f.Add("thermemu-scenario v9\n")
	f.Add(Header + "\n[platform\ncores")
	f.Add(Header + "\n[scenario]\nname = a # b\n")
	f.Add(Header + "\n[thermal]\nwindow-ms = 10\ntimescale = 10000\n") // parses; Lint rejects the 100 s span
	f.Add(Header + "\n[platform]\nfreq-mhz = 2000000\n")               // parses; Lint rejects the 0.5 ps period
	f.Add(Header + "\n[thermal]\nworkers = 2\n")                       // an unknown key
	f.Add(Header + "\n[thermal]\ncells = 400000\n")                    // parses; Lint rejects the cell count
	f.Add(Header + "\n[thermal]\npipeline = 200000\n")                 // parses; Lint rejects the depth
	f.Fuzz(func(t *testing.T, src string) {
		s1, err := Parse(src)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		rendered := s1.Render()
		s2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted input renders unparsable: %v\ninput: %q\nrender:\n%s", err, src, rendered)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("round trip changed the scenario\ninput: %q\nfirst:  %+v\nsecond: %+v", src, s1, s2)
		}
		// Canonical form is a fixed point: rendering the reparse is identical.
		if r2 := s2.Render(); r2 != rendered {
			t.Fatalf("render is not canonical\nfirst:\n%s\nsecond:\n%s", rendered, r2)
		}
	})
}
