package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestConvInferBatchedMatchesPerItem pins the batched inference conv —
// one packed GEMM over all N·oh·ow columns, stored straight into the
// NCHW output — bit-identical to convolving each item on its own. The
// reference runs every item as an N=1 call on the materialized path
// (explicit im2col, dense Gemm), which shares neither the multi-image B
// walk nor the grouped tile store with the code under test. The batch
// sizes straddle the refinement stage's 32 RoIs, and the planes (4×4,
// 7×7 and an odd non-square 5×9) at strides 1 and 2 make N·oh·ow cross
// register-panel and NC-block boundaries at every image offset, on every
// usable fp32 kernel (NR 8, 16 and 32; the active one under -short),
// with the fused path both on and off, at 1 and 8 workers. N=0 must
// return an empty tensor.
func TestConvInferBatchedMatchesPerItem(t *testing.T) {
	origKernel := GemmKernel()
	defer SetGemmKernel(origKernel)
	prevFused := SetConvFusedIm2col(true)
	defer SetConvFusedIm2col(prevFused)

	type plane struct{ h, w int }
	planes := []plane{{4, 4}, {7, 7}, {5, 9}}
	batches := []int{0, 1, 2, 31, 32, 33}
	const oc = 64 // the refinement trunk's width: routes small planes to the packed sweep

	kernels := availableKernels(t)
	if testing.Short() {
		// The short (race) pass checks the active kernel only; the full
		// suite and `make kernel-matrix` cover the others.
		kernels = []*gemmKernel{gemmActive.Load()}
	}
	for _, kr := range kernels {
		if _, err := SetGemmKernel(kr.name); err != nil {
			t.Fatalf("SetGemmKernel(%q): %v", kr.name, err)
		}
		rng := rand.New(rand.NewSource(61))
		fused, crossesNC := 0, 0
		for _, pl := range planes {
			for _, kern := range []int{1, 3} {
				c := 8
				if kern == 1 {
					c = 24
				}
				for _, stride := range []int{1, 2} {
					for _, pad := range []int{0, 1} {
						o := ConvOpts{Kernel: kern, Stride: stride, Padding: pad}
						oh, ow := o.OutDim(pl.h), o.OutDim(pl.w)
						if oh <= 0 || ow <= 0 {
							continue
						}
						eligible := gemmUsesPacked(oc, oh*ow, c*kern*kern)
						wgt := New(oc, c, kern, kern)
						bias := New(oc)
						fillRand(wgt, rng)
						fillRand(bias, rng)
						ep := Epilogue{Bias: bias, Act: true, Slope: 0.1}
						for _, n := range batches {
							x := New(n, c, pl.h, pl.w)
							fillRand(x, rng)
							label := fmt.Sprintf("%s n=%d %dx%d %+v", kr.name, n, pl.h, pl.w, o)
							want := convPerItem(x, wgt, o, ep)
							for _, fusedOn := range []bool{true, false} {
								SetConvFusedIm2col(fusedOn)
								for _, workers := range []int{1, 8} {
									got := runAtWorkers(workers, func() *Tensor {
										return Conv2DInfer(nil, x, wgt, o, ep)
									})
									assertTensorBits(t, fmt.Sprintf("%s fused=%v workers=%d", label, fusedOn, workers), want, got)
								}
							}
							SetConvFusedIm2col(true)
							if eligible && n > 1 {
								fused++
								if n*oh*ow > kr.nc {
									crossesNC++
								}
							}
						}
					}
				}
			}
		}
		if fused == 0 || crossesNC == 0 {
			t.Fatalf("%s: %d batched fused cases, %d crossing an NC block; the sweep no longer exercises the batched path", kr.name, fused, crossesNC)
		}
	}
}

// convPerItem is the per-item reference: each image convolved alone on
// the materialized path, with the epilogue applied by the same sweep.
func convPerItem(x, wgt *Tensor, o ConvOpts, ep Epilogue) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oc := wgt.shape[0]
	oh, ow := o.OutDim(h), o.OutDim(w)
	out := New(n, oc, oh, ow)
	prev := SetConvFusedIm2col(false)
	defer SetConvFusedIm2col(prev)
	for i := 0; i < n; i++ {
		item := FromSlice(x.data[i*c*h*w:(i+1)*c*h*w], 1, c, h, w)
		got := runAtWorkers(1, func() *Tensor { return Conv2DInfer(nil, item, wgt, o, ep) })
		copy(out.data[i*oc*oh*ow:(i+1)*oc*oh*ow], got.data)
	}
	return out
}
