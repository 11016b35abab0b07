package main

import (
	"os"
	"runtime/debug"
	"slices"
	"time"

	"rhsd/internal/hsd"
	"rhsd/internal/telemetry"
	"rhsd/internal/tensor"
)

// repeatSetup runs setup setupReps times and keeps the last state,
// tearing the earlier ones down, dropping them and returning their memory
// to the OS before the next, so each set-up starts from the same heap. It
// returns the median set-up time in seconds.
func repeatSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var st T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && teardown != nil {
			teardown(st)
		}
		var zero T
		st = zero
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return st, median(secs), nil
}

// beginTimedPhase returns the freed heap to the OS and restarts the
// kernel's peak-RSS mark (VmHWM), so peakRSSMiB read during or right after
// the timed phase is that phase's peak, not the set-up's. It then samples
// the Go runtime's counters for the phase.
func beginTimedPhase(o *outcome) memDelta {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		o.note("peak_rss_mib is the whole process's peak: resetting VmHWM failed: %v", err)
	}
	return memNow()
}

// closedLoop runs op back to back until seconds have elapsed and at
// least minOps ops have run, so every input is covered, and returns each
// op's latency in ms, whether it failed, the wall time of the timed phase,
// and the peak RSS in MiB over the first minOps ops. Failed ops keep their
// latency.
//
// The peak is read after that first pass over the inputs, which every run
// completes, rather than at the end: garbage piles up until the next GC,
// so a peak read at the end grows with the number of ops a run managed,
// and a slower run (or host) would read a lower peak.
func closedLoop(seconds float64, minOps int, op func(i int) error) (lat []float64, failed []bool, wall time.Duration, peakMiB float64) {
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < budget; i++ {
		t0 := time.Now()
		err := op(i)
		lat = append(lat, ms(time.Since(t0)))
		failed = append(failed, err != nil)
		if i == minOps-1 {
			peakMiB = peakRSSMiB()
		}
	}
	return lat, failed, time.Since(start), peakMiB
}

// countFailed counts the failed ops.
func countFailed(failed []bool) int {
	n := 0
	for _, f := range failed {
		if f {
			n++
		}
	}
	return n
}

// putLatency notes the run's op latency distribution and stores the
// share of ops that succeeded within limit. Each workload stores its own
// gated latency_ms (see BENCHMARK.json and README.md for why they
// differ).
func putLatency(o *outcome, lat []float64, failed []bool, limit time.Duration) {
	t, pct, n := tail(lat)
	o.note("op latency over %d ops: min %.2f ms, p50 %.2f ms, tail %.2f ms (p%.2f, 10 ops beyond it; the median below 21 ops)",
		n, slices.Min(lat), median(lat), t, pct)
	met := 0
	for i, v := range lat {
		if !failed[i] && v <= ms(limit) {
			met++
		}
	}
	o.values["slo_met_ratio"] = float64(met) / float64(max(len(lat), 1))
	o.note("slo: %d of %d ops succeeded within %v", met, len(lat), limit)
}

// stageTotals are the cumulative detection-stage seconds the model's
// instruments exported, grouped into the public calls they time:
// InferBase (backbone, encoder-decoder, inception, CPN heads), proposal
// decoding, h-NMS, and RefineInfer.
type stageTotals struct {
	trunk, proposals, hnms, refine float64
	rois                           int64
}

func readStages(ins *hsd.Instruments) stageTotals {
	s := func(st hsd.Stage) float64 { return ins.StageHistogram(st).Sum() }
	return stageTotals{
		trunk:     s(hsd.StageBackbone) + s(hsd.StageEncDec) + s(hsd.StageInception) + s(hsd.StageCPN),
		proposals: s(hsd.StagePruning),
		hnms:      s(hsd.StageHNMS),
		refine:    s(hsd.StageRefine),
		rois:      ins.ProposalsKept.Value(),
	}
}

// armTrace attaches fresh instruments to m and zeroes the tensor stage
// profile, which it switches on.
func armTrace(m *hsd.Model) *hsd.Instruments {
	ins := hsd.NewInstruments(telemetry.NewRegistry())
	m.SetInstruments(ins)
	tensor.ResetProfile()
	tensor.SetProfiling(true)
	return ins
}

// putStages stores the per-op stage rows and returns their sum in ms.
func putStages(o *outcome, st stageTotals, ops int) float64 {
	n := float64(max(ops, 1))
	o.values["hsd.trunk_ms"] = st.trunk * 1e3 / n
	o.values["hsd.proposals_ms"] = st.proposals * 1e3 / n
	o.values["hsd.hnms_ms"] = st.hnms * 1e3 / n
	o.values["hsd.refine_ms"] = st.refine * 1e3 / n
	o.values["hsd.refine_rois"] = float64(st.rois) / n
	return (st.trunk + st.proposals + st.hnms + st.refine) * 1e3 / n
}

// putTensorProfile stores the per-op tensor kernel rows from the global
// stage profile and returns the qgemm call total.
func putTensorProfile(o *outcome, ops int) (qgemmCalls int64) {
	n := float64(max(ops, 1))
	for _, e := range tensor.ProfileSnapshot() {
		switch e.Stage {
		case "gemm_packed", "qgemm", "gemm_rows", "quantize":
			o.values["tensor."+e.Stage+"_ms"] = float64(e.Ns) / 1e6 / n
			o.values["tensor."+e.Stage+".calls"] = float64(e.Calls) / n
			if e.Stage == "qgemm" {
				qgemmCalls = e.Calls
			}
		}
	}
	return qgemmCalls
}

// putCoverage stores the traced op wall and the unattributed remainder,
// and checks that the named layer rows cover the op within tolerance.
func putCoverage(o *outcome, lat []float64, opWallMS, layersMS float64) {
	o.values["traced_op_ms"] = opWallMS
	un := opWallMS - layersMS
	o.values["unattributed_ms"] = un
	share := un / opWallMS
	o.check("layer rows cover the traced op", share <= layerTolerance && share >= -layerTolerance,
		"unattributed %.2f of %.2f ms (%.1f%%, tolerance ±%.0f%%)", un, opWallMS, 100*share, 100*layerTolerance)
}
