package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"rhsd/internal/eval"
	"rhsd/internal/hsd"
	"rhsd/internal/layout"
	"rhsd/internal/serve"
	"rhsd/internal/tensor"
)

// dfm-serve: an in-process serve.Server (one pooled model, default 64 MiB
// result cache, default auto megatile factor) behind a loopback HTTP
// listener, driven by an open-loop Poisson schedule at serveRate requests
// per second with at most serveInFlight requests outstanding.
//
// The mix follows the repository's serving benchmark (make bench-serve):
// 90% repeats, of a working set of 2×2-region layouts (cache reads), and
// one request in ten that the cache has not seen. Half of those are fresh
// layouts (cold scans) and half are one-rect edits of working-set layouts
// posted with ?since= (writes that invalidate megatiles), the
// scan-edit-rescan loop of DESIGN.md §14; that even split is a choice.
//
// The arrival times, request kinds and working-set picks come from
// serveScheduleSeed, the same for every workload seed, so the load shape
// is fixed and only the layouts change with --seed. No request is due
// within serveColdGap of a fresh or edit request, about twice a cold
// scan: on a healthy build no request then queues behind a cold scan,
// so the median and the tail do not sit on the edge between queued and
// unqueued requests, where a few percent of host drift moved them by tens
// of percent. A build whose cold scans slow past the gap makes the next
// request queue, which the tail noted for every run, slo_met_ratio and
// serve.queue_wait_ms show.
const (
	serveRegions      = 2 // layout side in regions
	serveWorkingSet   = 8
	serveRate         = 0.8 // 40 requests in a 50-s run
	serveInFlight     = 2
	serveShareFresh   = 0.05
	serveShareEdit    = 0.05
	serveCacheMiB     = 64
	serveLimit        = 500 * time.Millisecond
	serveScheduleSeed = 7
	serveColdGap      = 300 * time.Millisecond
)

type reqKind int

const (
	kindRepeat reqKind = iota
	kindFresh
	kindEdit
)

// request is one planned /detect call.
type request struct {
	due  time.Duration // send time relative to the start of the timed phase
	kind reqKind
	base int // working-set index of a repeat or an edit
	l    *layout.Layout
	body []byte
}

// reply is what the load generator observed for one request.
type reply struct {
	lat, lag   float64       // ms from due time to response; ms sent late
	sent, done time.Duration // since the start of the timed phase
	resp       serve.DetectResponse
	err        error
}

type serveState struct {
	cfg     hsd.Config
	working []*layout.Layout
	plan    []request
	warmIDs []int64 // scan id of each working-set layout's warm-up request
	srv     *serve.Server
	http    *http.Server
	done    chan struct{} // closed when the HTTP server goroutine returns
	url     string
	client  *http.Client
}

func (s *serveState) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	_ = s.http.Shutdown(ctx) // a drain failure leaves nothing to report
	<-s.done
	_ = s.srv.Shutdown(ctx)
}

func layoutBody(l *layout.Layout) []byte {
	var buf bytes.Buffer
	_ = l.Save(&buf) // writes to a bytes.Buffer cannot fail
	return buf.Bytes()
}

// planRequests draws the open-loop schedule from sched:
// round(serveRate × seconds) requests with the kinds in fixed shares
// shuffled over them, and arrival times of a Poisson process conditioned
// on its count, except that no request is due within serveColdGap after a
// fresh or edit request. The fresh and edited layouts come from rng.
func planRequests(sched, rng *rand.Rand, cfg hsd.Config, working []*layout.Layout, seconds float64) []request {
	side := serveRegions * cfg.RegionNM()
	p := int(cfg.PitchNM)
	n := max(1, int(math.Round(serveRate*seconds)))
	kinds := make([]reqKind, n)
	nFresh := int(math.Round(serveShareFresh * float64(n)))
	nEdit := int(math.Round(serveShareEdit * float64(n)))
	for i := range kinds {
		switch {
		case i < nFresh:
			kinds[i] = kindFresh
		case i < nFresh+nEdit:
			kinds[i] = kindEdit
		}
	}
	sched.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// n+1 exponential gaps, scaled so that the gaps before the last
	// arrival plus the dead time after each cold request fill the phase.
	gaps := make([]float64, n+1)
	sum := 0.0
	for i := range gaps {
		gaps[i] = sched.ExpFloat64()
		sum += gaps[i]
	}
	scale := (seconds - float64(nFresh+nEdit)*serveColdGap.Seconds()) / sum
	due := make([]float64, n)
	t := 0.0
	for i := range due {
		t += gaps[i] * scale
		due[i] = t
		if kinds[i] != kindRepeat {
			t += serveColdGap.Seconds()
		}
	}
	plan := make([]request, n)
	for i := range plan {
		rq := request{due: time.Duration(due[i] * float64(time.Second)), kind: kinds[i], base: sched.Intn(len(working))}
		switch rq.kind {
		case kindFresh:
			rq.l = genLayout(rng, layout.R(0, 0, side, side), p)
		case kindEdit:
			rq.l = editLayout(rng, working[rq.base], p)
		default:
			rq.l = working[rq.base]
		}
		rq.body = layoutBody(rq.l)
		plan[i] = rq
	}
	return plan
}

func serveConfig() hsd.Config {
	cfg := eval.FastProfile().HSD
	cfg.ScoreThreshold = reportThreshold
	return cfg
}

func startServe(p params) (*serveState, error) {
	cfg := serveConfig()
	rng := rand.New(rand.NewSource(p.seed))
	side := serveRegions * cfg.RegionNM()
	working := make([]*layout.Layout, serveWorkingSet)
	for i := range working {
		working[i] = genLayout(rng, layout.R(0, 0, side, side), int(cfg.PitchNM))
	}
	plan := planRequests(rand.New(rand.NewSource(serveScheduleSeed)), rng, cfg, working, p.seconds)

	m, err := hsd.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(m, serve.Config{
		Pool:        1,
		QueueDepth:  -1, // rhsd-serve's default: 2×Pool may wait
		CacheMemMiB: serveCacheMiB,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &serveState{
		cfg: cfg, working: working, plan: plan, srv: srv,
		http: &http.Server{Handler: srv.Handler()},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     serveInFlight,
				MaxIdleConnsPerHost: serveInFlight,
			},
		},
	}
	go func() {
		defer close(st.done)
		_ = st.http.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	// Warm-up: scan the working set once so repeats read the cache.
	for _, l := range working {
		r := st.post(layoutBody(l), "")
		if r.err != nil {
			st.stop()
			return nil, fmt.Errorf("warm-up request: %w", r.err)
		}
		st.warmIDs = append(st.warmIDs, r.resp.ScanID)
	}
	return st, nil
}

// post sends one /detect request and validates the response shape.
func (s *serveState) post(body []byte, query string) reply {
	var r reply
	resp, err := s.client.Post(s.url+"/detect"+query, "text/plain", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
		return r
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r.resp); err != nil {
		r.err = fmt.Errorf("malformed DetectResponse: %w", err)
		return r
	}
	r.err = validResponse(r.resp)
	return r
}

func validResponse(d serve.DetectResponse) error {
	switch {
	case d.Count != len(d.Detections):
		return fmt.Errorf("count %d but %d detections", d.Count, len(d.Detections))
	case d.ScanID <= 0:
		return fmt.Errorf("scan_id %d", d.ScanID)
	case d.TilesScanned+d.TilesReused < 1:
		return errors.New("no megatile scanned or reused")
	case d.Precision != hsd.PrecisionFP32:
		return fmt.Errorf("precision %q", d.Precision)
	}
	for _, x := range d.Detections {
		for _, v := range []float64{x.CXnm, x.CYnm, x.Wnm, x.Hnm, x.Score} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return errors.New("non-finite detection field")
			}
		}
		if x.Wnm <= 0 || x.Hnm <= 0 || x.Score < 0 || x.Score > 1 {
			return fmt.Errorf("degenerate detection %+v", x)
		}
	}
	return nil
}

// drive runs the open-loop schedule and returns one reply per request.
func (s *serveState) drive() []reply {
	replies := make([]reply, len(s.plan))
	var mu sync.Mutex
	lastScan := map[int]int64{} // working-set index → latest scan id
	for i, id := range s.warmIDs {
		lastScan[i] = id
	}
	sem := make(chan struct{}, serveInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range s.plan {
		rq := &s.plan[i]
		due := start.Add(rq.due)
		time.Sleep(time.Until(due))
		sem <- struct{}{} // blocks while serveInFlight requests are outstanding
		query := ""
		if rq.kind == kindEdit {
			mu.Lock()
			if id, ok := lastScan[rq.base]; ok {
				query = "?since=" + strconv.FormatInt(id, 10)
			}
			mu.Unlock()
		}
		sent := time.Since(start)
		lag := ms(time.Since(due))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := s.post(rq.body, query)
			<-sem
			r.lat, r.lag = ms(time.Since(due)), lag
			r.sent, r.done = sent, time.Since(start)
			if r.err == nil && rq.kind == kindRepeat {
				mu.Lock()
				lastScan[rq.base] = r.resp.ScanID
				mu.Unlock()
			}
			replies[i] = r
		}(i)
	}
	wg.Wait()
	return replies
}

func runDFMServe(p params) (*outcome, error) {
	st, setupS, err := repeatSetup(func() (*serveState, error) { return startServe(p) }, (*serveState).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	o := newOutcome()
	o.values["setup_s"] = setupS
	cfg := st.cfg
	counts := map[reqKind]int{}
	for _, rq := range st.plan {
		counts[rq.kind]++
	}
	o.note("%d requests at %.2f/s: %d repeats of %d working-set layouts, %d fresh, %d edits; %d×%d-region layouts, workload seed %d",
		len(st.plan), serveRate, counts[kindRepeat], serveWorkingSet, counts[kindFresh], counts[kindEdit],
		serveRegions, serveRegions, p.seed)

	var before map[string]float64
	var beforeSt serve.Status
	if p.trace {
		if before, beforeSt, err = st.scrape(); err != nil {
			return nil, err
		}
		tensor.ResetProfile()
	}
	mem := beginTimedPhase(o)
	replies := st.drive()
	o.values["peak_rss_mib"] = peakRSSMiB()
	gcs, allocMiB := mem.since()

	lat := make([]float64, len(replies))
	failed := make([]bool, len(replies))
	nFailed := 0
	for i, r := range replies {
		lat[i], failed[i] = r.lat, r.err != nil
		if r.err != nil {
			if nFailed++; nFailed <= 3 {
				o.note("request %d failed: %v", i, r.err)
			}
		}
	}
	o.attempted, o.failed = len(replies), nFailed
	byKind := map[reqKind][]float64{}
	for i, rq := range st.plan {
		byKind[rq.kind] = append(byKind[rq.kind], lat[i])
	}
	o.values["serve.p50_repeat_ms"] = median(byKind[kindRepeat])
	o.values["serve.p50_fresh_ms"] = median(byKind[kindFresh])
	o.values["serve.p50_edit_ms"] = median(byKind[kindEdit])
	o.note("p50 by kind: repeat %.1f ms, fresh %.1f ms, edit %.1f ms",
		median(byKind[kindRepeat]), median(byKind[kindFresh]), median(byKind[kindEdit]))
	tiles := map[int]int{}
	for _, r := range replies {
		tiles[r.resp.TilesScanned+r.resp.TilesReused]++
	}
	o.note("megatiles per response: %v", tiles)
	putLatency(o, lat, failed, serveLimit)
	// The gated latency is the fastest cache-hit request. A repeat takes
	// 20–60 ms as the shared host's phases come and go, and quiet moments
	// as long as one repeat occur in nearly every run: over two sets of ten
	// seeds the fastest repeat spread (IQR over median) by 0.05 and 0.03,
	// while the tail (p75 of 40 requests, among the repeats) spread by 0.32
	// over ten seeds an hour earlier.
	fastest := math.Inf(1)
	for i, rq := range st.plan {
		if rq.kind == kindRepeat && !failed[i] {
			fastest = min(fastest, lat[i])
		}
	}
	o.values["latency_ms"] = fastest
	o.check("every response is a 200 DetectResponse", nFailed == 0, "%d of %d failed", nFailed, len(replies))

	if p.trace {
		if err := st.traceLayers(o, replies, lat, before, beforeSt); err != nil {
			return nil, err
		}
		n := float64(len(replies))
		o.values["runtime.gc_count"] = float64(gcs)
		o.values["runtime.alloc_mib_per_op"] = allocMiB / n
	}

	// Reference: a cold, uncached direct scan of every layout revision the
	// server answered, on a separate model with the same weights. Cached
	// and incremental serving are pinned bit-identical to it.
	ref, err := hsd.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	refScan := func(l *layout.Layout) []serve.DetectionJSON {
		f := ref.AutoMegatileFactor(l.Bounds, serveMegatileMemMiB<<20)
		return toJSON(ref.ScanLayoutMegatile(l, l.Bounds, f).Detections)
	}
	first := refScan(st.working[0])
	cache := map[string][]serve.DetectionJSON{string(layoutBody(st.working[0])): first}
	var acc f1Acc
	exact, compared := 0, 0
	for i, r := range replies {
		if r.err != nil {
			continue
		}
		key := string(st.plan[i].body)
		want, ok := cache[key]
		if !ok {
			want = refScan(st.plan[i].l)
			cache[key] = want
		}
		compared++
		if slices.Equal(r.resp.Detections, want) {
			exact++
		}
		acc.add(fromJSON(r.resp.Detections), fromJSON(want))
	}
	o.values["fidelity"] = acc.f1()
	o.note("fidelity: %d responses vs %d cold reference scans, %d detections matched of %d served",
		compared, len(cache), acc.tp, acc.got)
	o.check("served detections equal the cold scan", exact == compared && acc.f1() == 1,
		"%d of %d responses bit-identical, F1 %.4f", exact, compared, acc.f1())
	again := refScan(st.working[0])
	o.check("reference repeats on its last call", slices.Equal(first, again), "%d vs %d detections", len(first), len(again))
	o.check("reference is not empty", acc.ref > 0, "%d detections", acc.ref)
	return o, nil
}

// serveMegatileMemMiB is serve.Config's default per-clone workspace
// budget, which drives the auto megatile factor.
const serveMegatileMemMiB = 512

func toJSON(dets []hsd.Detection) []serve.DetectionJSON {
	out := make([]serve.DetectionJSON, len(dets))
	for i, d := range dets {
		out[i] = serve.DetectionJSON{CXnm: d.Clip.CX(), CYnm: d.Clip.CY(), Wnm: d.Clip.W(), Hnm: d.Clip.H(), Score: d.Score}
	}
	return out
}

func fromJSON(dets []serve.DetectionJSON) []hsd.Detection {
	out := make([]hsd.Detection, len(dets))
	for i, d := range dets {
		out[i].Clip.X0, out[i].Clip.X1 = d.CXnm-d.Wnm/2, d.CXnm+d.Wnm/2
		out[i].Clip.Y0, out[i].Clip.Y1 = d.CYnm-d.Hnm/2, d.CYnm+d.Hnm/2
		out[i].Score = d.Score
	}
	return out
}

// scrape reads the server's Prometheus exposition (numeric samples by
// series) and its /statusz document.
func (s *serveState) scrape() (map[string]float64, serve.Status, error) {
	var st serve.Status
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, st, err
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				samples[line[:i]] = v
			}
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return nil, st, err
	}
	resp, err = s.client.Get(s.url + "/statusz")
	if err != nil {
		return nil, st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, st, fmt.Errorf("decoding /statusz: %w", err)
	}
	return samples, st, nil
}

// traceLayers fills the per-layer rows of a traced dfm-serve run: the
// server's own counters and histograms over the timed phase, then a
// direct replay of the same requests in schedule order on a separate
// model with its own cache, timing each public call the server makes.
func (s *serveState) traceLayers(o *outcome, replies []reply, lat []float64, before map[string]float64, beforeSt serve.Status) error {
	after, afterSt, err := s.scrape()
	if err != nil {
		return err
	}
	n := float64(len(replies))
	delta := func(k string) float64 { return after[k] - before[k] }
	queueWait := 0.0
	if c := delta("rhsd_serve_queue_wait_seconds_count"); c > 0 {
		queueWait = delta("rhsd_serve_queue_wait_seconds_sum") / c * 1e3
	}
	o.values["serve.queue_wait_ms"] = queueWait
	o.values["serve.shed"] = float64(afterSt.Shed - beforeSt.Shed)
	hits := afterSt.CacheHits - beforeSt.CacheHits
	lookups := hits + afterSt.CacheMisses - beforeSt.CacheMisses + afterSt.CacheShared - beforeSt.CacheShared
	o.values["scancache.lookups"] = float64(lookups) / n
	o.values["scancache.hit_ratio"] = float64(hits) / float64(max(lookups, 1))
	o.values["scancache.evictions"] = float64(afterSt.CacheEvictions - beforeSt.CacheEvictions)
	o.check("serving reads the result cache", lookups > 0, "%d lookups, %d hits", lookups, hits)
	// The pooled model's stage histograms and the tensor stage profile
	// (armed by the server's flight recorder), nested inside the scan.
	stage := func(name string) float64 {
		return delta(`rhsd_detect_stage_seconds_sum{stage="` + name + `"}`)
	}
	stagesMS := putStages(o, stageTotals{
		trunk:     stage("backbone") + stage("encdec") + stage("inception") + stage("cpn"),
		proposals: stage("pruning"),
		hnms:      stage("hnms"),
		refine:    stage("refine"),
		rois:      int64(delta(`rhsd_detect_proposals_total{fate="kept"}`)),
	}, len(replies))
	qgemm := putTensorProfile(o, len(replies))
	o.check("fp32 serving runs no int8 GEMM", qgemm == 0, "tensor.qgemm calls %d", qgemm)

	var lag, meanLat float64
	ok, scanned, reused := 0, 0, 0
	for i, r := range replies {
		lag += r.lag
		meanLat += lat[i]
		if r.err == nil {
			ok++
			scanned += r.resp.TilesScanned
			reused += r.resp.TilesReused
		}
	}
	lag, meanLat = lag/n, meanLat/n
	o.values["loadgen.lag_ms"] = lag
	o.values["loadgen.sent"] = n
	o.values["loadgen.ok"] = float64(ok)
	o.values["loadgen.failed"] = n - float64(ok)
	o.values["hsd.tiles_scanned"] = float64(scanned) / n
	o.values["hsd.tiles_reused"] = float64(reused) / n

	m, err := hsd.NewModel(s.cfg)
	if err != nil {
		return err
	}
	m.SetScanCache(hsd.NewDetCache(serveCacheMiB << 20))
	var parse, auto, scan, raster, rasterPx, wv, rk float64
	// prev holds each working-set layout's latest scan, the base of an
	// edit; the working set is scanned once first, as the server's
	// warm-up did.
	type baseScan struct {
		l   *layout.Layout
		res *hsd.ScanResult
	}
	prev := map[int]baseScan{}
	for i, l := range s.working {
		prev[i] = baseScan{l, m.ScanLayoutMegatile(l, l.Bounds, m.AutoMegatileFactor(l.Bounds, serveMegatileMemMiB<<20))}
	}
	for _, rq := range s.plan {
		t0 := time.Now()
		l, err := layout.ParseChecked(bytes.NewReader(rq.body), layout.Limits{})
		parse += ms(time.Since(t0))
		if err != nil {
			return fmt.Errorf("replay parse: %w", err)
		}
		t0 = time.Now()
		factor := m.AutoMegatileFactor(l.Bounds, serveMegatileMemMiB<<20)
		auto += ms(time.Since(t0))
		t0 = time.Now()
		var res *hsd.ScanResult
		if pv, ok := prev[rq.base]; ok && rq.kind == kindEdit {
			res = m.RescanLayoutMegatile(pv.res, l, layout.Diff(pv.l, l))
		} else {
			res = m.ScanLayoutMegatile(l, l.Bounds, factor)
		}
		scan += ms(time.Since(t0))
		if rq.kind == kindRepeat {
			prev[rq.base] = baseScan{l, res}
		}

		// Probes of the calls inside the scan, each timed on its own.
		t0 = time.Now()
		version := m.WeightsVersion()
		wv += ms(time.Since(t0))
		r, px, rasters := rasterPass(s.cfg, l, factor)
		raster += r
		rasterPx += float64(px)
		t0 = time.Now()
		for _, x := range rasters {
			_ = hsd.RasterKey(x, version)
		}
		rk += ms(time.Since(t0))
	}
	o.values["layout.parse_ms"] = parse / n
	o.values["hsd.auto_factor_ms"] = auto / n
	o.values["hsd.scan_ms"] = scan / n
	o.values["hsd.weights_version_ms"] = wv / n
	o.values["layout.raster_ms"] = raster / n
	o.values["layout.raster_mpx"] = rasterPx / 1e6 / n
	o.values["hsd.raster_key_ms"] = rk / n
	o.values["serve.overhead_ms"] = meanLat - lag - queueWait - scan/n
	// The summed rows are the ones timed in the server during the timed
	// phase (queue wait and the detection stages, the auto factor's
	// warm-up pass included) plus the replay's small probes of the
	// calls around them; the replayed scan and auto factor overlap the
	// stages and stay out of the sum.
	putCoverage(o, lat, meanLat, lag+queueWait+stagesMS+(parse+raster+wv+rk)/n)
	return nil
}

// rasterPass rasterizes, as the megatile scan does, every megatile
// window of a factor scan over l's bounds and returns the time taken in
// ms, the pixels rasterized and the rasters. The geometry follows
// Config.Megatile: the factor is capped to what the window needs, and
// origins step by the megatile stride with the last one pinned to the
// window's far edge.
func rasterPass(cfg hsd.Config, l *layout.Layout, factor int) (float64, int64, []*tensor.Tensor) {
	w := l.Bounds
	fit := (max(w.W(), w.H()) + cfg.RegionNM() - 1) / cfg.RegionNM()
	spec := cfg.Megatile(min(factor, max(fit, 1)))
	ys := origins(w.Y0, w.Y1, spec.RegionNM, spec.StrideNM)
	xs := origins(w.X0, w.X1, spec.RegionNM, spec.StrideNM)
	var px int64
	var out []*tensor.Tensor
	t0 := time.Now()
	for _, y := range ys {
		for _, x := range xs {
			sub := l.Window(layout.R(x, y, x+spec.RegionNM, y+spec.RegionNM))
			r := hsd.RegionRaster(sub, cfg, spec.PxSize)
			px += int64(r.Dim(2)) * int64(r.Dim(3))
			out = append(out, r)
		}
	}
	return ms(time.Since(t0)), px, out
}

// origins lists scan origins along one axis: lo, lo+stride, … with the
// last origin pinned so its span ends at hi.
func origins(lo, hi, span, stride int) []int {
	if hi-lo <= span {
		return []int{lo}
	}
	var out []int
	for p := lo; ; p += stride {
		if p+span >= hi {
			return append(out, hi-span)
		}
		out = append(out, p)
	}
}
