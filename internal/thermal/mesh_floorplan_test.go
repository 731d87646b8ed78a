package thermal_test

import (
	"fmt"
	"testing"

	"thermemu/internal/floorplan"
	"thermemu/internal/thermal"
)

// TestMeshBuildersAgreeFloorplans holds NewModel to the all-pairs oracle
// on the paper's floorplans, gridded the way a thermal host grids them.
func TestMeshBuildersAgreeFloorplans(t *testing.T) {
	for _, fp := range []*floorplan.Floorplan{floorplan.FourARM7(), floorplan.FourARM11()} {
		for _, cells := range []int{28, 150, 600} {
			t.Run(fmt.Sprintf("%s/%d", fp.Name, cells), func(t *testing.T) {
				si := fp.GridTargetCells(cells)
				cu := thermal.UniformGrid(fp.DieW, fp.DieH, 3, 3)
				for _, nz := range []int{1, 2} {
					opt := thermal.DefaultOptions()
					opt.NzSi = nz
					if d := thermal.CompareBuilders(si, cu, opt); d != "" {
						t.Fatalf("NzSi %d: %s", nz, d)
					}
				}
			})
		}
	}
}
