package main

import (
	"math/rand"

	"rhsd/internal/layout"
)

// genLayout fills bounds with seeded Manhattan metal: horizontal routing
// tracks broken into segments by line-end gaps, vertical jogs between
// adjacent tracks, and small blocks dropped into the spaces. Widths, gaps
// and spacings are drawn down to one or two pixels, so every region holds
// the narrow gaps and line ends the detector scores. The same rng state
// gives the same layout; the program under test only ever sees the
// resulting rectangles.
func genLayout(rng *rand.Rand, bounds layout.Rect, pitchNM int) *layout.Layout {
	p := pitchNM
	l := layout.New(bounds)
	for y := bounds.Y0 + (1+rng.Intn(4))*p; y < bounds.Y1-2*p; {
		width := (2 + rng.Intn(2)) * p
		for x := bounds.X0 + rng.Intn(12)*p; x < bounds.X1; {
			seg := (8 + rng.Intn(48)) * p
			x1 := min(x+seg, bounds.X1)
			l.Add(layout.R(x, y, x1, min(y+width, bounds.Y1)))
			// A jog down to the next track now and then.
			if rng.Intn(5) == 0 && x1-x > 4*p {
				jx := x + (1+rng.Intn((x1-x)/p-2))*p
				l.Add(layout.R(jx, y+width, jx+2*p, min(y+width+(3+rng.Intn(4))*p, bounds.Y1)))
			}
			x = x1 + (1+rng.Intn(7))*p // line-end gap
		}
		y += width + (1+rng.Intn(5))*p // track spacing
	}
	blocks := bounds.W() * bounds.H() / (64 * p * 64 * p)
	for i := 0; i < blocks; i++ {
		w, h := (3+rng.Intn(8))*p, (3+rng.Intn(8))*p
		x := bounds.X0 + rng.Intn(max(1, (bounds.W()-w)/p))*p
		y := bounds.Y0 + rng.Intn(max(1, (bounds.H()-h)/p))*p
		l.Add(layout.R(x, y, x+w, y+h))
	}
	return l
}

// editLayout returns a copy of base with one extra rectangle: the
// one-rect edit a DFM loop posts to /detect?since= after a fix.
func editLayout(rng *rand.Rand, base *layout.Layout, pitchNM int) *layout.Layout {
	p := pitchNM
	out := layout.New(base.Bounds)
	for _, r := range base.Rects {
		out.Add(r)
	}
	w, h := (2+rng.Intn(6))*p, (2+rng.Intn(6))*p
	x := base.Bounds.X0 + rng.Intn(max(1, (base.Bounds.W()-w)/p))*p
	y := base.Bounds.Y0 + rng.Intn(max(1, (base.Bounds.H()-h)/p))*p
	out.Add(layout.R(x, y, x+w, y+h))
	return out
}
