package hsd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rhsd/internal/geom"
	"rhsd/internal/tensor"
)

// refineTestRois returns n seeded proposal clips over a c-sized input,
// including one that lies outside the feature extent (pooled to zeros)
// and one thinner than a feature pixel (degenerate bins).
func refineTestRois(c Config, n int) []geom.Rect {
	rng := rand.New(rand.NewSource(71))
	size := float64(c.InputSize)
	rois := make([]geom.Rect, 0, n)
	for i := 0; len(rois) < n; i++ {
		switch i {
		case 3:
			rois = append(rois, geom.Rect{X0: size + 10, Y0: size + 10, X1: size + 40, Y1: size + 40})
		case 5:
			rois = append(rois, geom.Rect{X0: 20, Y0: 20, X1: 21, Y1: 60})
		default:
			x, y := rng.Float64()*(size-48), rng.Float64()*(size-48)
			rois = append(rois, geom.Rect{X0: x, Y0: y, X1: x + 8 + rng.Float64()*40, Y1: y + 8 + rng.Float64()*40})
		}
	}
	return rois
}

// refineConvCount is the number of convolutions in the refinement trunk
// (one 4-D weight each).
func refineConvCount(m *Model) int {
	n := 0
	for _, p := range m.RefineTrunk.Params() {
		if len(p.W.Shape()) == 4 {
			n++
		}
	}
	return n
}

// TestRefineInferBatchedKernelParity pins the batched refinement trunk
// bit-identical to running it one RoI at a time, under the active GEMM
// kernel (`make kernel-matrix` forces each one) at 1 and 8 workers: the
// batch is one product per conv, whose columns must accumulate exactly
// as the per-RoI products do. The comparison stops at the trunk output
// because the dense heads after it route by row count (R), not per RoI.
func TestRefineInferBatchedKernelParity(t *testing.T) {
	for _, fine := range []bool{false, true} {
		c := TinyConfig()
		c.UseFineTap = fine
		m, err := NewModel(c)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(72))
		x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
		x.RandUniform(rng, 0, 1)
		rois := refineTestRois(c, 33)

		out := m.InferBase(x)
		var wantAll []float32
		for i := range rois {
			wantAll = append(wantAll, m.refineTrunkInfer(out, rois[i:i+1]).Data()...)
		}
		per := len(wantAll) / len(rois)
		for _, workers := range []int{1, 8} {
			got := detectAtWorkers(workers, func() []float32 {
				return append([]float32(nil), m.refineTrunkInfer(out, rois).Data()...)
			})
			label := fmt.Sprintf("kernel %s fine=%v workers=%d", tensor.GemmKernel(), fine, workers)
			if len(got) != len(wantAll) {
				t.Fatalf("%s: batched trunk has %d values, per-RoI %d", label, len(got), len(wantAll))
			}
			for i, v := range wantAll {
				if math.Float32bits(v) != math.Float32bits(got[i]) {
					t.Fatalf("%s: RoI %d value %d differs: per-RoI %v batched %v", label, i/per, i%per, v, got[i])
				}
			}
		}
	}
}

// TestRefineGemmCallsPerConv is the guard for the batched refinement:
// the trunk makes exactly one packed GEMM per convolution whether it
// refines 1 RoI or 32, so the call count does not grow with the number
// of proposals, and no trunk conv falls back to a materialized im2col
// or the row kernel. The whole RefineInfer call adds at most one packed
// GEMM per dense head on top: those route by their row count R, so the
// row kernel may take them at R=1.
func TestRefineGemmCallsPerConv(t *testing.T) {
	m := parityModel(t)
	c := m.Config
	rng := rand.New(rand.NewSource(73))
	x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
	x.RandUniform(rng, 0, 1)
	convs := refineConvCount(m)
	if convs == 0 {
		t.Fatal("refinement trunk has no convolutions")
	}

	prevProf := tensor.SetProfiling(true)
	defer tensor.SetProfiling(prevProf)
	sc := &tensor.ProfileScope{}
	calls := func(stage string) int64 {
		for _, e := range sc.Snapshot() {
			if e.Stage == stage {
				return e.Calls
			}
		}
		t.Fatalf("no profile stage %q", stage)
		return 0
	}

	dense := 2 // RefineCls, RefineReg
	for _, p := range m.RefineFC.Params() {
		if len(p.W.Shape()) == 2 {
			dense++
		}
	}

	for _, r := range []int{1, 32} {
		rois := refineTestRois(c, r)
		out := m.InferBase(x)
		m.ws.SetProfileScope(sc)
		sc.Reset()
		m.refineTrunkInfer(out, rois)
		packed, rows, im2col := calls("gemm_packed"), calls("gemm_rows"), calls("im2col")
		if packed != int64(convs) || rows != 0 || im2col != 0 {
			t.Errorf("R=%d: trunk made %d packed GEMMs, %d row-kernel GEMMs and %d im2col lowerings; want %d, 0, 0 (one packed GEMM per conv)",
				r, packed, rows, im2col, convs)
		}
		sc.Reset()
		m.RefineInfer(out, rois)
		if packed := calls("gemm_packed"); packed < int64(convs) || packed > int64(convs+dense) {
			t.Errorf("R=%d: RefineInfer made %d packed GEMMs, want %d convs plus at most %d dense heads",
				r, packed, convs, dense)
		}
		m.ws.SetProfileScope(nil)
	}
}
