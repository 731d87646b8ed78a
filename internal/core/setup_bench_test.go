package core

import (
	"testing"

	"thermemu/internal/floorplan"
	"thermemu/internal/thermal"
)

var benchHost *ThermalHost

// benchNewThermalHost times gridding the ARM11 floorplan into about cells
// thermal cells and building its RC network.
func benchNewThermalHost(b *testing.B, cells int) {
	fp := floorplan.FourARM11()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := NewThermalHost(fp, cells, thermal.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		benchHost = h
	}
}

// BenchmarkNewThermalHost150 is the hostlink workload's mesh size.
func BenchmarkNewThermalHost150(b *testing.B) { benchNewThermalHost(b, 150) }

// BenchmarkNewThermalHost2400 is a fine mesh, where mesh construction
// dominates set-up.
func BenchmarkNewThermalHost2400(b *testing.B) { benchNewThermalHost(b, 2400) }
