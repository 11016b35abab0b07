package tensor

import (
	"sync"

	"rhsd/internal/parallel"
)

// Packed cache-blocked GEMM (BLIS-style). op(A) and op(B) are repacked
// into contiguous panels sized for cache residency and swept by a
// register-blocked micro-kernel whose geometry (MR×NR register tile,
// KC/NC cache blocking) comes from the runtime-selected kernel
// (gemm_kernel.go):
//
//   - A is packed once, alpha folded in, as MR-wide row panels grouped by
//     KC-deep k-blocks. The whole packed A is reused by every column
//     block, so it stays hot in L2/L3 across the sweep.
//   - The n axis is cut into NC-wide column blocks; the blocks fan out
//     over the worker pool and each concurrent worker packs B panels for
//     its current block into a private per-slot buffer (no locking,
//     parallel.ForIndexed provides the slot id).
//   - For each (k-block, column block) the micro-kernel accumulates an
//     MR×NR register tile over the packed panels and adds it into C.
//
// B panels are produced by a bSource, which is either a dense matrix
// (plain Gemm) or a virtual im2col lowering of a batch of images laid
// side by side (the fused inference-conv path, conv_infer.go) — the
// panel values are identical either way, so fusing changes memory
// traffic, never results.
//
// Determinism: the block geometry is fixed per kernel and the k-blocks
// of one output element are always accumulated in ascending order by the
// single worker that owns the element's column block, so the result is
// bit-identical for every worker count. Only the grouping of the k-sum
// differs from the unblocked kernel, so the two agree to rounding.

// packBufPool recycles pack buffers across Gemm calls so steady-state
// inference performs no heap allocations. Buffers are binned by
// power-of-two size class; each class keeps a bounded stack so a burst of
// concurrent training goroutines cannot pin unbounded memory.
var packBufPool struct {
	mu   sync.Mutex
	bins map[int][][]float32
}

const packBufPoolPerClass = 16

func packBufGet(n int) []float32 {
	class := sizeClass(n)
	packBufPool.mu.Lock()
	if packBufPool.bins == nil {
		packBufPool.bins = make(map[int][][]float32)
	}
	bin := packBufPool.bins[class]
	if len(bin) > 0 {
		buf := bin[len(bin)-1]
		packBufPool.bins[class] = bin[:len(bin)-1]
		packBufPool.mu.Unlock()
		return buf[:n]
	}
	packBufPool.mu.Unlock()
	return make([]float32, n, 1<<class)
}

func packBufPut(buf []float32) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	class := sizeClass(len(buf))
	if 1<<class != len(buf) {
		// Foreign capacity (not pool-shaped); binning it would lie about
		// its size class, so drop it for the GC.
		return
	}
	packBufPool.mu.Lock()
	if packBufPool.bins == nil {
		packBufPool.bins = make(map[int][][]float32)
	}
	if len(packBufPool.bins[class]) < packBufPoolPerClass {
		packBufPool.bins[class] = append(packBufPool.bins[class], buf)
	}
	packBufPool.mu.Unlock()
}

// sizeClass returns the exponent of the smallest power of two ≥ n (≥ 64
// elements, so tiny buffers share a bin).
func sizeClass(n int) int {
	class := 6
	for 1<<class < n {
		class++
	}
	return class
}

// bSource describes where B panels come from. It is passed by value
// everywhere (including into the parallel closure) so the serial path
// never heap-allocates: capturing its address would force the whole
// struct onto the heap on every call (escape analysis is
// path-insensitive, see DESIGN §10).
type bSource struct {
	im2col bool
	trans  bool      // dense only: B stored n×k instead of k×n
	data   []float32 // dense matrix, or [N,c,h,w] images for im2col
	k, n   int       // op(B) dimensions
	// im2col fields: op(B)[row, j] = image_i[ch, oy·stride+ky-pad,
	// ox·stride+kx-pad] with row = (ch·K+ky)·K+kx and
	// j = (i·oh+oy)·ow+ox, zero outside the image — the N per-image
	// matrices im2colInto materializes, placed side by side and produced
	// panel-by-panel on the fly instead.
	c, h, w, oh, ow int
	o               ConvOpts
}

// group is the number of C columns stored as one row-major [m, group]
// block: an im2col source's columns run image by image, and C holds each
// image's [m, oh·ow] product at offset i·m·oh·ow — the NCHW layout of a
// convolution output — while a dense source is a single group of n.
func (bs bSource) group() int {
	if bs.im2col {
		return bs.oh * bs.ow
	}
	return bs.n
}

func denseB(trans bool, k, n int, b []float32) bSource {
	return bSource{trans: trans, data: b, k: k, n: n}
}

// im2colB is the virtual lowering of the n images [n,c,h,w] in x: one
// op(B) whose n·oh·ow columns run image by image.
func im2colB(x []float32, n, c, h, w int, o ConvOpts) bSource {
	oh, ow := o.OutDim(h), o.OutDim(w)
	return bSource{
		im2col: true,
		data:   x,
		k:      c * o.Kernel * o.Kernel,
		n:      n * oh * ow,
		c:      c, h: h, w: w, oh: oh, ow: ow,
		o: o,
	}
}

// pack lays the (pc..pc+kc, jc..jc+nc) block of op(B) out as
// [nPanels][KC·NR] panels: within a panel, element (p, s) holds
// op(B)[pc+p, j0+s]. Columns beyond the block pad with zeros.
func (bs bSource) pack(kr *gemmKernel, pb []float32, jc, nc, pc, kc int) {
	if bs.im2col {
		bs.packIm2col(kr, pb, jc, nc, pc, kc)
		return
	}
	nr, kcStride := kr.nr, kr.kc
	k, n, b := bs.k, bs.n, bs.data
	nPanels := (nc + nr - 1) / nr
	for np := 0; np < nPanels; np++ {
		dst := pb[np*kcStride*nr:]
		j0 := jc + np*nr
		if j0+nr <= jc+nc {
			if bs.trans {
				for p := 0; p < kc; p++ {
					d := dst[p*nr : p*nr+nr]
					for s := range d {
						d[s] = b[(j0+s)*k+pc+p]
					}
				}
			} else {
				for p := 0; p < kc; p++ {
					brow := b[(pc+p)*n+j0:]
					copy(dst[p*nr:p*nr+nr], brow[:nr])
				}
			}
			continue
		}
		for p := 0; p < kc; p++ {
			for s := 0; s < nr; s++ {
				j := j0 + s
				var v float32
				if j < jc+nc {
					if bs.trans {
						v = b[j*k+pc+p]
					} else {
						v = b[(pc+p)*n+j]
					}
				}
				dst[p*nr+s] = v
			}
		}
	}
}

// packIm2col packs B panels straight from the images, skipping the
// materialized column matrix entirely: each element is computed from the
// (channel, ky, kx) row decomposition and the (image, oy, ox) output
// pixel the column index names. Values — including the zero padding of
// out-of-image taps and of columns beyond the block — are identical to
// running packB over im2colInto's output, which is what keeps the fused
// and materialized conv paths bit-identical.
func (bs bSource) packIm2col(kr *gemmKernel, pb []float32, jc, nc, pc, kc int) {
	nr, kcStride := kr.nr, kr.kc
	o := bs.o
	kern, stride := o.Kernel, o.Stride
	h, w, oh, ow := bs.h, bs.w, bs.oh, bs.ow
	imgStride := bs.c * h * w
	x := bs.data
	nPanels := (nc + nr - 1) / nr
	for np := 0; np < nPanels; np++ {
		dst := pb[np*kcStride*nr:]
		j0 := jc + np*nr
		cols := jc + nc - j0
		if cols > nr {
			cols = nr
		}
		// Decompose the panel's starting row and column once, then walk
		// both incrementally — no div/mod in the element loops.
		ch := pc / (kern * kern)
		rem := pc - ch*kern*kern
		ky := rem / kern
		kx := rem - ky*kern
		img0 := j0 / (oh * ow)
		oy0 := j0/ow - img0*oh
		ox0 := j0 - (img0*oh+oy0)*ow
		for p := 0; p < kc; p++ {
			d := dst[p*nr : p*nr+nr]
			base := img0*imgStride + ch*h*w
			dy := ky - o.Padding
			dx := kx - o.Padding
			oy, ox := oy0, ox0
			// Walk the panel row in output-row segments: within one
			// segment sy is fixed, so padding resolves to zero-fills and
			// — at stride 1, the dominant conv geometry — the interior is
			// one contiguous copy from the image row, the same memmove
			// fast path the dense packer and im2colChans enjoy. A
			// segment never crosses an image: the walk moves to the next
			// image's plane when oy reaches oh.
			for s := 0; s < cols; {
				seg := ow - ox
				if seg > cols-s {
					seg = cols - s
				}
				sy := oy*stride + dy
				switch {
				case sy < 0 || sy >= h:
					for e := 0; e < seg; e++ {
						d[s+e] = 0
					}
				case stride == 1:
					srow := x[base+sy*w : base+sy*w+w]
					sx := ox + dx
					e := 0
					for ; e < seg && sx < 0; e++ {
						d[s+e] = 0
						sx++
					}
					if run := min(seg-e, w-sx); run > 0 {
						copy(d[s+e:s+e+run], srow[sx:sx+run])
						e += run
					}
					for ; e < seg; e++ {
						d[s+e] = 0
					}
				default:
					srow := x[base+sy*w : base+sy*w+w]
					for e := 0; e < seg; e++ {
						sx := (ox+e)*stride + dx
						if sx >= 0 && sx < w {
							d[s+e] = srow[sx]
						} else {
							d[s+e] = 0
						}
					}
				}
				s += seg
				ox = 0
				oy++
				if oy == oh {
					oy = 0
					base += imgStride
				}
			}
			for s := cols; s < nr; s++ {
				d[s] = 0
			}
			kx++
			if kx == kern {
				kx = 0
				ky++
				if ky == kern {
					ky = 0
					ch++
				}
			}
		}
	}
}

func gemmPacked(sc *ProfileScope, transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	gemmPackedScoped(gemmActive.Load(), sc, transA, m, n, k, alpha, a, denseB(transB, k, n, b), beta, c)
}

// gemmPackedWith runs the packed sweep with an explicit kernel and B
// source; the parity suites use it to pin asm kernels against their
// portable reference twins on identical geometry.
func gemmPackedWith(kr *gemmKernel, transA bool, m, n, k int, alpha float32, a []float32, bs bSource, beta float32, c []float32) {
	gemmPackedScoped(kr, nil, transA, m, n, k, alpha, a, bs, beta, c)
}

// gemmPackedScoped is gemmPackedWith with a profile-attribution scope.
func gemmPackedScoped(kr *gemmKernel, sc *ProfileScope, transA bool, m, n, k int, alpha float32, a []float32, bs bSource, beta float32, c []float32) {
	on, t0 := profStart()
	mPanels := (m + kr.mr - 1) / kr.mr
	kBlocks := (k + kr.kc - 1) / kr.kc
	nBlocks := (n + kr.nc - 1) / kr.nc

	pa := packBufGet(kBlocks * mPanels * kr.kc * kr.mr)
	packA(kr, transA, m, k, alpha, a, pa)

	// One pack buffer per worker slot; nc is a multiple of nr for every
	// registered kernel, so kc·nc floats hold a block's panels exactly.
	pbStride := kr.kc * kr.nc
	slots := parallel.Slots(nBlocks, 1)
	pbAll := packBufGet(slots * pbStride)

	if slots == 1 {
		// Serial fast path: calling the named block sweep directly avoids
		// creating a closure (which Go heap-allocates unconditionally
		// because it may flow to a goroutine) — this keeps single-worker
		// inference allocation-free.
		gemmPackedBlocks(kr, bs, m, n, k, beta, c, pa, pbAll, kBlocks, mPanels, 0, nBlocks)
	} else {
		parallel.ForIndexed(nBlocks, 1, func(slot, b0, b1 int) {
			pb := pbAll[slot*pbStride : (slot+1)*pbStride]
			gemmPackedBlocks(kr, bs, m, n, k, beta, c, pa, pb, kBlocks, mPanels, b0, b1)
		})
	}

	packBufPut(pbAll)
	packBufPut(pa)
	profEnd(on, sc, profGemmPacked, t0)
}

// gemmPackedBlocks sweeps column blocks [b0, b1) using the private pack
// buffer pb for B panels.
func gemmPackedBlocks(kr *gemmKernel, bs bSource, m, n, k int, beta float32, c, pa, pb []float32, kBlocks, mPanels, b0, b1 int) {
	for blk := b0; blk < b1; blk++ {
		jc := blk * kr.nc
		nc := n - jc
		if nc > kr.nc {
			nc = kr.nc
		}
		for kb := 0; kb < kBlocks; kb++ {
			pc := kb * kr.kc
			kc := k - pc
			if kc > kr.kc {
				kc = kr.kc
			}
			bs.pack(kr, pb, jc, nc, pc, kc)
			gemmPackedBlockTiles(kr, m, n, bs.group(), kc, beta, c, pa, pb, kb, mPanels, jc, nc)
		}
	}
}

// gemmPackedBlockTiles sweeps the micro-kernel over one (column block,
// k-block) pair whose B panels are already packed in pb — shared by the
// per-call packers above and the prepacked-B driver (gemm_prepack.go),
// so both consume panel data through identical tile arithmetic. C is
// laid out in column groups of width group (see bSource.group).
func gemmPackedBlockTiles(kr *gemmKernel, m, n, group, kc int, beta float32, c, pa, pb []float32, kb, mPanels, jc, nc int) {
	mr, nr := kr.mr, kr.nr
	nPanels := (nc + nr - 1) / nr
	first := kb == 0
	for mp := 0; mp < mPanels; mp++ {
		paPanel := pa[(kb*mPanels+mp)*kr.kc*mr:]
		i0 := mp * mr
		mi := m - i0
		if mi > mr {
			mi = mr
		}
		for np := 0; np < nPanels; np++ {
			j0 := jc + np*nr
			nj := jc + nc - j0
			if nj > nr {
				nj = nr
			}
			var acc [gemmMaxTile]float32
			gemmMicroRun(kr.kind, mr, nr, kc, paPanel, pb[np*kr.kc*nr:], &acc)
			storeTile(c, m, n, group, i0, j0, mi, nj, nr, &acc, first, beta)
		}
	}
}

// packA lays op(A) out as [kBlocks][mPanels][KC·MR] panels with alpha
// folded in: within a panel, element (p, r) holds alpha·op(A)[i0+r, pc+p].
// Rows beyond m pad with zeros so the micro-kernel needs no row tail.
func packA(kr *gemmKernel, transA bool, m, k int, alpha float32, a []float32, pa []float32) {
	mr, kcMax := kr.mr, kr.kc
	mPanels := (m + mr - 1) / mr
	for kb, pc := 0, 0; pc < k; kb, pc = kb+1, pc+kcMax {
		kc := k - pc
		if kc > kcMax {
			kc = kcMax
		}
		for mp := 0; mp < mPanels; mp++ {
			dst := pa[(kb*mPanels+mp)*kcMax*mr:]
			i0 := mp * mr
			if i0+mr <= m {
				// Full panel: no row bounds checks in the copy loops.
				if transA {
					for p := 0; p < kc; p++ {
						arow := a[(pc+p)*m+i0 : (pc+p)*m+i0+mr]
						d := dst[p*mr : p*mr+mr]
						for r, v := range arow {
							d[r] = alpha * v
						}
					}
				} else {
					for r := 0; r < mr; r++ {
						src := a[(i0+r)*k+pc : (i0+r)*k+pc+kc]
						for p, v := range src {
							dst[p*mr+r] = alpha * v
						}
					}
				}
				continue
			}
			for p := 0; p < kc; p++ {
				for r := 0; r < mr; r++ {
					i := i0 + r
					var v float32
					if i < m {
						if transA {
							v = a[(pc+p)*m+i]
						} else {
							v = a[i*k+pc+p]
						}
					}
					dst[p*mr+r] = alpha * v
				}
			}
		}
	}
}

// storeTile adds the mi×nj valid region of an MR×NR accumulator tile
// (row stride nr) into C at (i0, j0), where C is stored in column groups
// of width group (see bSource.group). A tile that straddles a group
// boundary is stored as one segment per group. On the first k-block the
// destination is beta-scaled first, matching the beta-then-accumulate
// semantics of the unblocked kernel.
func storeTile(c []float32, m, n, group, i0, j0, mi, nj, nr int, acc *[gemmMaxTile]float32, first bool, beta float32) {
	g, gj := 0, j0
	if group < n {
		g = j0 / group
		gj = j0 - g*group
	}
	for s0 := 0; s0 < nj; {
		seg := min(nj-s0, group-gj)
		base := g*m*group + gj
		for r := 0; r < mi; r++ {
			crow := c[base+(i0+r)*group : base+(i0+r)*group+seg]
			arow := acc[r*nr+s0 : r*nr+s0+seg]
			switch {
			case first && beta == 0:
				copy(crow, arow)
			case first && beta != 1:
				for s := range crow {
					crow[s] = beta*crow[s] + arow[s]
				}
			default:
				for s := range crow {
					crow[s] += arow[s]
				}
			}
		}
		s0 += seg
		g++
		gj = 0
	}
}

// gemmMicro4x8Go accumulates a 4×8 tile over kc packed steps:
// acc[r*8+s] = Σ_p pa[p*4+r]·pb[p*8+s]. It is the portable muladd-family
// kernel and the bit-reference for the SSE implementation, whose
// MULPS/ADDPS per-lane rounding is identical to scalar mul-then-add
// (pinned by TestGemmMicroKernelParity).
func gemmMicro4x8Go(kc int, pa, pb []float32, acc *[gemmMaxTile]float32) {
	var (
		c00, c01, c02, c03, c04, c05, c06, c07 float32
		c10, c11, c12, c13, c14, c15, c16, c17 float32
		c20, c21, c22, c23, c24, c25, c26, c27 float32
		c30, c31, c32, c33, c34, c35, c36, c37 float32
	)
	pa = pa[:kc*4]
	pb = pb[:kc*8]
	for p := 0; p < kc; p++ {
		pav := pa[p*4 : p*4+4]
		pbv := pb[p*8 : p*8+8]
		a0, a1, a2, a3 := pav[0], pav[1], pav[2], pav[3]
		b0, b1, b2, b3 := pbv[0], pbv[1], pbv[2], pbv[3]
		b4, b5, b6, b7 := pbv[4], pbv[5], pbv[6], pbv[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c04 += a0 * b4
		c05 += a0 * b5
		c06 += a0 * b6
		c07 += a0 * b7
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c14 += a1 * b4
		c15 += a1 * b5
		c16 += a1 * b6
		c17 += a1 * b7
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c24 += a2 * b4
		c25 += a2 * b5
		c26 += a2 * b6
		c27 += a2 * b7
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		c34 += a3 * b4
		c35 += a3 * b5
		c36 += a3 * b6
		c37 += a3 * b7
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = c00, c01, c02, c03, c04, c05, c06, c07
	acc[8], acc[9], acc[10], acc[11], acc[12], acc[13], acc[14], acc[15] = c10, c11, c12, c13, c14, c15, c16, c17
	acc[16], acc[17], acc[18], acc[19], acc[20], acc[21], acc[22], acc[23] = c20, c21, c22, c23, c24, c25, c26, c27
	acc[24], acc[25], acc[26], acc[27], acc[28], acc[29], acc[30], acc[31] = c30, c31, c32, c33, c34, c35, c36, c37
}
