package hsd

import (
	"math"

	"rhsd/internal/geom"
	"rhsd/internal/tensor"
)

// RoIPool implements Region-of-Interest pooling (§3.3, Figure 7): each
// proposal clip, given in input-pixel coordinates, is scaled down to the
// feature map, divided into Size×Size bins and max-pooled per bin,
// producing a fixed-size tensor per proposal regardless of clip shape —
// "which reserves the whole feature information and makes further hotspot
// classification and regression feasible".
type RoIPool struct {
	Size   int     // output spatial size (paper: 7)
	Stride float64 // feature stride (input px per feature px)

	feat *tensor.Tensor // cached feature map [1, C, H, W]
	arg  []int32        // argmax flat index into the feature plane, or -1
	bins []int          // one RoI's bin bounds (binBounds scratch)
}

// NewRoIPool constructs a pooling module.
func NewRoIPool(size int, stride float64) *RoIPool {
	return &RoIPool{Size: size, Stride: stride}
}

// Forward pools each RoI from feat [1, C, H, W] into [R, C, Size, Size].
// Empty bins (possible for degenerate RoIs) produce 0 with no gradient.
func (p *RoIPool) Forward(feat *tensor.Tensor, rois []geom.Rect) *tensor.Tensor {
	c, h, w := feat.Dim(1), feat.Dim(2), feat.Dim(3)
	p.feat = feat
	out := tensor.New(len(rois), c, p.Size, p.Size)
	p.arg = make([]int32, out.Size())
	for i := range p.arg {
		p.arg[i] = -1
	}
	oi := 0
	for _, roi := range rois {
		// Scale the clip from input coordinates onto the feature map.
		fx0 := roi.X0 / p.Stride
		fy0 := roi.Y0 / p.Stride
		fx1 := roi.X1 / p.Stride
		fy1 := roi.Y1 / p.Stride
		// Clamp to the feature extent.
		fx0 = clampF(fx0, 0, float64(w))
		fx1 = clampF(fx1, 0, float64(w))
		fy0 = clampF(fy0, 0, float64(h))
		fy1 = clampF(fy1, 0, float64(h))
		if fx1-fx0 <= 0 || fy1-fy0 <= 0 {
			// The RoI lies entirely outside the feature extent: emit zeros
			// with no gradient.
			oi += c * p.Size * p.Size
			continue
		}
		y0s, y1s, x0s, x1s := p.binBounds(fx0, fy0, fx1, fy1, w, h)
		for ch := 0; ch < c; ch++ {
			plane := feat.Data()[ch*h*w : (ch+1)*h*w]
			for by := 0; by < p.Size; by++ {
				y0, y1 := y0s[by], y1s[by]
				for bx := 0; bx < p.Size; bx++ {
					x0, x1 := x0s[bx], x1s[bx]
					best := float32(math.Inf(-1))
					bestIdx := int32(-1)
					for y := y0; y < y1; y++ {
						for x := x0; x < x1; x++ {
							if v := plane[y*w+x]; v > best {
								best = v
								bestIdx = int32(ch*h*w + y*w + x)
							}
						}
					}
					if bestIdx >= 0 {
						out.Data()[oi] = best
						p.arg[oi] = bestIdx
					}
					oi++
				}
			}
		}
	}
	return out
}

// Infer pools each RoI into workspace memory without recording argmax
// indices or caching the feature map — the allocation-free counterpart
// of Forward for the detection path. Values are bit-identical to
// Forward's output.
func (p *RoIPool) Infer(ws *tensor.Workspace, feat *tensor.Tensor, rois []geom.Rect) *tensor.Tensor {
	c, h, w := feat.Dim(1), feat.Dim(2), feat.Dim(3)
	// Zeroed output: degenerate bins and out-of-extent RoIs rely on it.
	out := ws.ZeroTensor(len(rois), c, p.Size, p.Size)
	oi := 0
	for _, roi := range rois {
		fx0 := clampF(roi.X0/p.Stride, 0, float64(w))
		fx1 := clampF(roi.X1/p.Stride, 0, float64(w))
		fy0 := clampF(roi.Y0/p.Stride, 0, float64(h))
		fy1 := clampF(roi.Y1/p.Stride, 0, float64(h))
		if fx1-fx0 <= 0 || fy1-fy0 <= 0 {
			oi += c * p.Size * p.Size
			continue
		}
		y0s, y1s, x0s, x1s := p.binBounds(fx0, fy0, fx1, fy1, w, h)
		for ch := 0; ch < c; ch++ {
			plane := feat.Data()[ch*h*w : (ch+1)*h*w]
			for by := 0; by < p.Size; by++ {
				y0, y1 := y0s[by], y1s[by]
				for bx := 0; bx < p.Size; bx++ {
					x0, x1 := x0s[bx], x1s[bx]
					best := float32(math.Inf(-1))
					found := false
					for y := y0; y < y1; y++ {
						for x := x0; x < x1; x++ {
							if v := plane[y*w+x]; v > best {
								best = v
								found = true
							}
						}
					}
					if found {
						out.Data()[oi] = best
					}
					oi++
				}
			}
		}
	}
	return out
}

// Backward scatters the pooled gradient [R, C, Size, Size] back onto the
// feature map, accumulating where RoIs overlap.
func (p *RoIPool) Backward(gy *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(p.feat.Shape()...)
	for i, a := range p.arg {
		if a >= 0 {
			dx.Data()[a] += gy.Data()[i]
		}
	}
	return dx
}

// binBounds computes one RoI's bin bounds: bin (by, bx) pools rows
// [y0[by], y1[by]) and columns [x0[bx], x1[bx]) of every channel plane
// of a w×h feature map, for the RoI spanning [fx0, fx1)×[fy0, fy1)
// there. The bounds depend only on the RoI, so the pooling loops compute
// them once per RoI rather than once per channel. The slices alias
// scratch the pool reuses across calls.
func (p *RoIPool) binBounds(fx0, fy0, fx1, fy1 float64, w, h int) (y0, y1, x0, x1 []int) {
	size := p.Size
	if len(p.bins) != 4*size {
		p.bins = make([]int, 4*size)
	}
	y0, y1, x0, x1 = p.bins[:size], p.bins[size:2*size], p.bins[2*size:3*size], p.bins[3*size:]
	bw := (fx1 - fx0) / float64(size)
	bh := (fy1 - fy0) / float64(size)
	for i := 0; i < size; i++ {
		y0[i], y1[i] = clampBin(int(math.Floor(fy0+float64(i)*bh)), int(math.Ceil(fy0+float64(i+1)*bh)), h)
		x0[i], x1[i] = clampBin(int(math.Floor(fx0+float64(i)*bw)), int(math.Ceil(fx0+float64(i+1)*bw)), w)
	}
	return y0, y1, x0, x1
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// clampBin clamps a bin to the plane and guarantees at least one pixel
// when the RoI has any extent at all in range.
func clampBin(lo, hi, n int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi <= lo {
		if lo >= n {
			lo = n - 1
		}
		hi = lo + 1
		if hi > n {
			return 0, 0
		}
	}
	return lo, hi
}
