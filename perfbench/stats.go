package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"rhsd/internal/hsd"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the median of xs (mean of the middle pair for even
// lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples above it, the percentile itself, and the sample count. With
// fewer than 21 samples that percentile would lie below the median, so
// the median stands in (reported as percentile 50).
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n < 21 {
		return median(xs), 50, n
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[n-11], 100 * float64(n-10) / float64(n), n
}

// iou is the intersection over union of two detection clips.
func iou(a, b hsd.Detection) float64 {
	ix := math.Min(a.Clip.X1, b.Clip.X1) - math.Max(a.Clip.X0, b.Clip.X0)
	iy := math.Min(a.Clip.Y1, b.Clip.Y1) - math.Max(a.Clip.Y0, b.Clip.Y0)
	if ix <= 0 || iy <= 0 {
		return 0
	}
	inter := ix * iy
	union := a.Clip.W()*a.Clip.H() + b.Clip.W()*b.Clip.H() - inter
	return inter / union
}

// matchCounts matches got against ref one-to-one at IoU >= 0.5, greedily
// in descending IoU order, and returns the true-positive count.
func matchCounts(got, ref []hsd.Detection) (tp int) {
	type pair struct {
		i, j int
		v    float64
	}
	var pairs []pair
	for i := range got {
		for j := range ref {
			if v := iou(got[i], ref[j]); v >= 0.5 {
				pairs = append(pairs, pair{i, j, v})
			}
		}
	}
	slices.SortStableFunc(pairs, func(a, b pair) int {
		switch {
		case a.v > b.v:
			return -1
		case a.v < b.v:
			return 1
		}
		return 0
	})
	usedG := make([]bool, len(got))
	usedR := make([]bool, len(ref))
	for _, p := range pairs {
		if !usedG[p.i] && !usedR[p.j] {
			usedG[p.i], usedR[p.j] = true, true
			tp++
		}
	}
	return tp
}

// f1Acc accumulates detection agreement over many inputs.
type f1Acc struct{ tp, got, ref int }

func (a *f1Acc) add(got, ref []hsd.Detection) {
	a.tp += matchCounts(got, ref)
	a.got += len(got)
	a.ref += len(ref)
}

// f1 is 2·TP / (|got| + |ref|); two empty sets agree perfectly.
func (a *f1Acc) f1() float64 {
	if a.got+a.ref == 0 {
		return 1
	}
	return 2 * float64(a.tp) / float64(a.got+a.ref)
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// memDelta samples the Go runtime's GC count and cumulative allocation.
type memDelta struct {
	gc    uint32
	alloc uint64
}

func memNow() memDelta {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return memDelta{s.NumGC, s.TotalAlloc}
}

// since returns the GCs run and MiB allocated since d was taken.
func (d memDelta) since() (gcs int, allocMiB float64) {
	now := memNow()
	return int(now.gc - d.gc), float64(now.alloc-d.alloc) / (1 << 20)
}

// cpuTimes reads the machine-wide steal and total jiffies from
// /proc/stat. Steal is time this guest was runnable but the hypervisor ran
// someone else: host contention that process CPU time cannot show.
func cpuTimes() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
