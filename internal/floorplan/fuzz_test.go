package floorplan

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadJSON holds the floorplan reader to two invariants: it never
// panics — any input is a floorplan or an error — and an accepted
// floorplan survives WriteJSON → ReadJSON unchanged, field for field.
func FuzzReadJSON(f *testing.F) {
	for _, fp := range []*Floorplan{FourARM7(), FourARM11()} {
		var buf bytes.Buffer
		if err := fp.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"name":"x","die_w_um":1000,"die_h_um":1000,"components":[
		{"name":"c","kind":"core","x_um":0.1,"y_um":0.3,"w_um":100.7,"h_um":100,"core_id":0,
		 "power":{"name":"p","max_power_w":0.1,"density_w_mm2":0.3,"ref_freq_mhz":333.3}}]}`))
	f.Add([]byte(`{"name":"x","die_w_um":1000,"die_h_um":1000,"components":[
		{"name":"c","kind":"core","x_um":0,"y_um":0,"w_um":1,"h_um":1,"core_id":0,
		 "power":{"name":"p","max_power_w":1,"density_w_mm2":1,"ref_freq_mhz":1e305}}]}`))
	f.Add([]byte(`{"name":"x","die_w_um":1000,"die_h_um":1000,"components":[]}`))
	f.Add([]byte(`{"name":"x","die_w_um":-1}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fp, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := fp.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted floorplan does not re-encode: %v", err)
		}
		again, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("re-encoded floorplan rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(fp, again) {
			t.Fatalf("round trip changed the floorplan:\n%+v\n%+v", fp, again)
		}
	})
}
