package etherlink

import "testing"

// FuzzUnmarshal exercises the frame parser with arbitrary bytes: it must
// never panic, and every frame it accepts must re-marshal to the identical
// wire image (the codec is canonical).
func FuzzUnmarshal(f *testing.F) {
	ok, _ := (&Frame{Dst: HostMAC, Src: DeviceMAC, Type: MsgStats, Seq: 9,
		Payload: []byte{1, 2, 3}}).Marshal()
	f.Add(ok)
	f.Add([]byte{})
	f.Add(make([]byte, headerLen+crcLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Unmarshal(data)
		if err != nil {
			return
		}
		again, err := fr.Marshal()
		if err != nil {
			t.Fatalf("accepted frame failed to re-marshal: %v", err)
		}
		if string(again) != string(data) {
			t.Fatalf("re-marshal differs from accepted wire image")
		}
	})
}

// FuzzUnmarshalStats checks the stats payload parser on arbitrary bytes.
func FuzzUnmarshalStats(f *testing.F) {
	f.Add((&Stats{Cycle: 1, WindowPs: 2, PowerUW: []uint32{3}}).MarshalPayload())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalStats(data)
		if err != nil {
			return
		}
		if string(s.MarshalPayload()) != string(data) {
			t.Fatal("stats payload not canonical")
		}
	})
}

// FuzzUnmarshalBatches checks the batched stats and temperature payload
// parsers on arbitrary bytes: decoding never panics, and every accepted
// payload re-encodes to exactly the bytes it came from. The first input
// byte picks the parser, so one corpus covers both.
func FuzzUnmarshalBatches(f *testing.F) {
	stats := (&StatsBatch{Windows: []Stats{
		{Cycle: 1, WindowPs: 2, PowerUW: []uint32{3, 4}},
		{Cycle: 5, WindowPs: 6},
	}}).MarshalPayload()
	temps := (&TempsBatch{Windows: []Temps{
		{TimePs: 7, MilliK: []uint32{300000, 301000}},
		{TimePs: 8, MilliK: []uint32{302000}},
	}}).MarshalPayload()
	f.Add(append([]byte{0}, stats...))
	f.Add(append([]byte{1}, temps...))
	f.Add([]byte{0, 0xff, 0xff})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		payload := data[1:]
		var again []byte
		if data[0]&1 == 0 {
			sb, err := UnmarshalStatsBatch(payload)
			if err != nil {
				return
			}
			again = sb.MarshalPayload()
		} else {
			tb, err := UnmarshalTempsBatch(payload)
			if err != nil {
				return
			}
			again = tb.MarshalPayload()
		}
		if string(again) != string(payload) {
			t.Fatal("batch payload not canonical")
		}
	})
}
