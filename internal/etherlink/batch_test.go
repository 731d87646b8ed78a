package etherlink

import (
	"fmt"
	"testing"
)

func sampleStatsBatch() StatsBatch {
	return StatsBatch{Windows: []Stats{
		{Cycle: 1_000, WindowPs: 100_000_000, PowerUW: []uint32{1, 2, 3}},
		{Cycle: 2_000, WindowPs: 100_000_000, PowerUW: []uint32{4, 5, 6}},
		{Cycle: 3_500, WindowPs: 150_000_000, PowerUW: []uint32{7, 8, 9}},
	}}
}

func TestStatsBatchRoundTrip(t *testing.T) {
	in := sampleStatsBatch()
	out, err := UnmarshalStatsBatch(in.MarshalPayload())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Windows) != len(in.Windows) {
		t.Fatalf("window count %d, want %d", len(out.Windows), len(in.Windows))
	}
	for i := range in.Windows {
		a, b := in.Windows[i], out.Windows[i]
		if a.Cycle != b.Cycle || a.WindowPs != b.WindowPs {
			t.Fatalf("window %d header: %+v vs %+v", i, a, b)
		}
		for j := range a.PowerUW {
			if a.PowerUW[j] != b.PowerUW[j] {
				t.Fatalf("window %d power %d: %d vs %d", i, j, a.PowerUW[j], b.PowerUW[j])
			}
		}
	}
}

func TestTempsBatchRoundTrip(t *testing.T) {
	in := TempsBatch{Windows: []Temps{
		{TimePs: 10, MilliK: []uint32{300_000, 310_500}},
		{TimePs: 20, MilliK: []uint32{301_250, 311_750}},
	}}
	out, err := UnmarshalTempsBatch(in.MarshalPayload())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Windows) != len(in.Windows) {
		t.Fatalf("window count %d, want %d", len(out.Windows), len(in.Windows))
	}
	for i := range in.Windows {
		a, b := in.Windows[i], out.Windows[i]
		if a.TimePs != b.TimePs {
			t.Fatalf("window %d time: %d vs %d", i, a.TimePs, b.TimePs)
		}
		for j := range a.MilliK {
			if a.MilliK[j] != b.MilliK[j] {
				t.Fatalf("window %d temp %d: %d vs %d", i, j, a.MilliK[j], b.MilliK[j])
			}
		}
	}
}

// TestBatchIntoReusesBuffers pins the zero-steady-state-allocation contract:
// repeated UnmarshalStatsBatchInto/UnmarshalTempsBatchInto calls with the
// same shape must not grow or replace the destination's backing arrays.
func TestBatchIntoReusesBuffers(t *testing.T) {
	in := sampleStatsBatch()
	payload := in.MarshalPayload()
	var dst StatsBatch
	if err := UnmarshalStatsBatchInto(&dst, payload); err != nil {
		t.Fatal(err)
	}
	win0 := &dst.Windows[0]
	pw0 := &dst.Windows[0].PowerUW[0]
	if err := UnmarshalStatsBatchInto(&dst, payload); err != nil {
		t.Fatal(err)
	}
	if &dst.Windows[0] != win0 || &dst.Windows[0].PowerUW[0] != pw0 {
		t.Error("second StatsBatch parse reallocated the destination buffers")
	}

	allocs := testing.AllocsPerRun(100, func() {
		if err := UnmarshalStatsBatchInto(&dst, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state StatsBatch parse allocates %.1f/op", allocs)
	}

	tb := TempsBatch{Windows: []Temps{
		{TimePs: 1, MilliK: []uint32{1, 2}},
		{TimePs: 2, MilliK: []uint32{3, 4}},
	}}
	tp := tb.MarshalPayload()
	var tdst TempsBatch
	if err := UnmarshalTempsBatchInto(&tdst, tp); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := UnmarshalTempsBatchInto(&tdst, tp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state TempsBatch parse allocates %.1f/op", allocs)
	}
}

func TestBatchRejectsMalformedPayloads(t *testing.T) {
	sb := sampleStatsBatch()
	good := sb.MarshalPayload()
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short header", good[:1]},
		{"truncated window", good[:10]},
		{"truncated powers", good[:len(good)-2]},
		{"trailing bytes", append(append([]byte(nil), good...), 0xFF)},
	}
	for _, c := range cases {
		if _, err := UnmarshalStatsBatch(c.b); err == nil {
			t.Errorf("stats batch: %s accepted", c.name)
		}
	}
	tgood := (&TempsBatch{Windows: []Temps{{TimePs: 1, MilliK: []uint32{5}}}}).MarshalPayload()
	tcases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short header", tgood[:1]},
		{"truncated window", tgood[:6]},
		{"truncated temps", tgood[:len(tgood)-1]},
		{"trailing bytes", append(append([]byte(nil), tgood...), 0)},
	}
	for _, c := range tcases {
		if _, err := UnmarshalTempsBatch(c.b); err == nil {
			t.Errorf("temps batch: %s accepted", c.name)
		}
	}
}

// TestMaxStatsBatchFitsFrame checks the sizing helper against the real
// encoder: a MaxStatsBatch-sized batch must fit MaxPayload, one more must
// not.
func TestMaxStatsBatchFitsFrame(t *testing.T) {
	for _, comps := range []int{1, 21, 64} {
		n := MaxStatsBatch(comps)
		if n < 1 {
			t.Fatalf("%d components: MaxStatsBatch = %d", comps, n)
		}
		mk := func(count int) *StatsBatch {
			sb := &StatsBatch{Windows: make([]Stats, count)}
			for i := range sb.Windows {
				sb.Windows[i].PowerUW = make([]uint32, comps)
			}
			return sb
		}
		if got := len(mk(n).MarshalPayload()); got > MaxPayload {
			t.Errorf("%d components: %d windows need %d bytes > MaxPayload %d",
				comps, n, got, MaxPayload)
		}
		if got := len(mk(n + 1).MarshalPayload()); got <= MaxPayload {
			t.Errorf("%d components: %d windows still fit %d bytes — MaxStatsBatch too small",
				comps, n+1, got)
		}
	}
}

// TestBatchMsgTypesNamed keeps the wire enum and its debug names in sync,
// and pins the codes: the statistics and temperature messages keep 7 and
// 8, and the retired codes 1, 2 (single-window messages) and 5 (event-log
// stream) name no message.
func TestBatchMsgTypesNamed(t *testing.T) {
	if MsgStatsBatch.String() != "stats-batch" || MsgTempBatch.String() != "temp-batch" {
		t.Errorf("batch message names: %q, %q", MsgStatsBatch.String(), MsgTempBatch.String())
	}
	if MsgCtrl != 3 || MsgAck != 4 || MsgNack != 6 || MsgStatsBatch != 7 || MsgTempBatch != 8 || MsgSweep != 9 {
		t.Errorf("wire codes moved: ctrl %d, ack %d, nack %d, stats %d, temps %d, sweep %d",
			MsgCtrl, MsgAck, MsgNack, MsgStatsBatch, MsgTempBatch, MsgSweep)
	}
	for _, code := range []MsgType{1, 2, 5} {
		if want := fmt.Sprintf("msg(%d)", uint8(code)); code.String() != want {
			t.Errorf("retired code %d named %q, want %q", uint8(code), code, want)
		}
	}
}
