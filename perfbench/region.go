package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"rhsd/internal/eval"
	"rhsd/internal/hsd"
	"rhsd/internal/layout"
	"rhsd/internal/tensor"
)

// paper-region-int8: closed-loop Detect of PaperConfig (256 px) regions
// with the int8 trunk armed, cycling over regionCount seeded regions.
const (
	regionCount       = 12
	regionCalibration = 4
	regionLimit       = time.Second
)

type regionState struct {
	m       *hsd.Model
	rasters []*tensor.Tensor
}

func runRegionInt8(p params) (*outcome, error) {
	cfg := hsd.PaperConfig()
	cfg.ScoreThreshold = reportThreshold
	st, setupS, err := repeatSetup(func() (*regionState, error) {
		rng := rand.New(rand.NewSource(p.seed))
		side := cfg.RegionNM()
		rasters := make([]*tensor.Tensor, regionCount)
		for i := range rasters {
			l := genLayout(rng, layout.R(0, 0, side, side), int(cfg.PitchNM))
			rasters[i] = hsd.RegionRaster(l, cfg, cfg.InputSize)
		}
		m, err := hsd.NewModel(cfg)
		if err != nil {
			return nil, err
		}
		if err := m.CalibrateInt8(eval.SyntheticCalibration(cfg, regionCalibration)); err != nil {
			return nil, fmt.Errorf("int8 calibration: %w", err)
		}
		if err := m.SetPrecision(hsd.PrecisionInt8); err != nil {
			return nil, err
		}
		if _, err := m.DetectChecked(rasters[0]); err != nil {
			return nil, fmt.Errorf("warm-up detect: %w", err)
		}
		return &regionState{m, rasters}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.values["setup_s"] = setupS
	m, rasters := st.m, st.rasters
	o.note("%d regions of %d px, precision %s, workload seed %d", regionCount, cfg.InputSize, m.Precision(), p.seed)

	// The traced run attaches a result cache to show that region detect
	// never consults one.
	var ins *hsd.Instruments
	var cache *hsd.DetCache
	if p.trace {
		ins = armTrace(m)
		cache = hsd.NewDetCache(64 << 20)
		m.SetScanCache(cache)
	}
	mem := beginTimedPhase(o)

	firsts := make([][]hsd.Detection, regionCount)
	mismatches := 0
	lat, failed, wall, peak := closedLoop(p.seconds, regionCount, func(i int) error {
		k := i % regionCount
		dets, err := m.DetectChecked(rasters[k])
		if err != nil {
			return err
		}
		if i < regionCount {
			firsts[k] = dets
		} else if !slices.Equal(firsts[k], dets) {
			mismatches++
		}
		return nil
	})
	o.values["peak_rss_mib"] = peak
	ops, nFailed := len(lat), countFailed(failed)
	o.attempted, o.failed = ops, nFailed
	gcs, allocMiB := mem.since()
	putLatency(o, lat, failed, regionLimit)
	// The gated latency is the tail: a detect takes 265–310 ms while the
	// guest has its core to itself and 450–600 ms while the shared host is
	// busy, in phases of seconds to minutes, and some minutes hold no quiet
	// phase long enough for one detect. Over nine seeds of 50-s runs the
	// run minimum spread (IQR over median) by 0.31; the tail, in the busy
	// phases every run meets, by 0.06–0.16 over five sets.
	o.values["latency_ms"], _, _ = tail(lat)
	o.note("regions_per_s %.3f: regions detected per wall-second of the timed phase (not gated: it follows the host's phases)",
		float64(ops-nFailed)/wall.Seconds())
	o.check("every detect succeeded", nFailed == 0, "%d of %d failed", nFailed, ops)
	o.check("detects repeat their first result", mismatches == 0, "%d of %d differ", mismatches, max(ops-regionCount, 0))

	if p.trace {
		n := float64(ops)
		layers := putStages(o, readStages(ins), ops)
		qgemm := putTensorProfile(o, ops)
		o.values["runtime.gc_count"] = float64(gcs)
		o.values["runtime.alloc_mib_per_op"] = allocMiB / n
		putCoverage(o, lat, ms(wall)/n, layers)
		o.check("int8 trunk is armed", qgemm > 0, "tensor.qgemm calls %d", qgemm)
		cs := cache.Stats()
		lookups := cs.Hits + cs.Misses + cs.Shared
		o.values["scancache.lookups"] = float64(lookups) / n
		o.check("region detect makes no cache lookups", lookups == 0, "%d lookups on the attached cache", lookups)
		m.SetScanCache(nil)
	}

	// Reference: fp32 Detect with the same weights, after the timed phase;
	// the first region is detected again last to show it repeats.
	m.SetInstruments(nil)
	if err := m.SetPrecision(hsd.PrecisionFP32); err != nil {
		return nil, err
	}
	var acc f1Acc
	var ref0 []hsd.Detection
	for k, x := range rasters {
		ref := m.Detect(x)
		if k == 0 {
			ref0 = ref
		}
		acc.add(firsts[k], ref)
	}
	o.values["fidelity"] = acc.f1()
	o.note("fidelity: int8 %d vs fp32 %d detections, %d matched", acc.got, acc.ref, acc.tp)
	again := m.Detect(rasters[0])
	o.check("reference repeats on its last call", slices.Equal(ref0, again), "%d vs %d detections", len(ref0), len(again))
	o.check("reference is not empty", acc.ref > 0, "%d detections", acc.ref)
	return o, nil
}
