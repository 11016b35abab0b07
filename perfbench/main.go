// Command perfbench is the repository's end-to-end benchmark. It builds
// seeded inputs, drives one workload for a fixed time through the public
// APIs of layout, hsd, tensor, scancache and serve, checks that the
// outputs are correct, and prints every metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-region-int8 --seed 1 --seconds 50 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 the same workload runs again with per-layer telemetry
// armed and the metrics are the per-layer rows, including the
// unattributed remainder of the traced op. perfbench/aa.py runs the
// A/A steadiness check.
//
// The compute engine is pinned to one worker (parallel.SetWorkers(1),
// serve Pool 1) and the process to one scheduler thread (GOMAXPROCS 1):
// on a small shared host a second worker made medians of the same binary
// swing by tens of percent, and alternating dfm-serve runs measured a
// lower, steadier p50 with one thread than with two.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"rhsd/internal/cpu"
	"rhsd/internal/parallel"
	"rhsd/internal/tensor"
)

// The kernels the recorded baseline was measured with. A run on a host
// that dispatches different GEMM kernels measures different code, so it
// fails instead of reporting numbers.
const (
	wantGemmKernel  = "avx512"
	wantQGemmKernel = "qvnni"
)

// heldOutSeed is the workload seed no tuning was done on: a claimed gain
// measured on the usual seeds must also hold with --seed 1009.
const heldOutSeed = 1009

// reportThreshold is the hotspot score threshold every workload reports
// at. The weights are the untrained ones Config.Seed gives (the repository
// ships no checkpoint), whose scores sit below the default 0.5; at 0.05
// every refined clip is reported, as a recall-first sign-off would, and
// the fidelity checks compare non-empty sets.
const reportThreshold = 0.05

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

// layerTolerance bounds the unattributed remainder of a traced op: the
// named layer rows must cover the op wall to within this share. It is
// wider than the in-process attribution needs (under 1% on the closed
// loops) because dfm-serve's rows come from a replay of the requests.
const layerTolerance = 0.15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer are the metric names and units each mode prints,
// in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"latency_ms", "ms"},
	{"slo_met_ratio", "ratio"},
	{"fidelity", "F1"},
}

var perLayer = []struct{ name, unit string }{
	{"layout.parse_ms", "ms"},
	{"layout.raster_ms", "ms"},
	{"layout.raster_mpx", "Mpx"},
	{"hsd.trunk_ms", "ms"},
	{"hsd.proposals_ms", "ms"},
	{"hsd.hnms_ms", "ms"},
	{"hsd.refine_ms", "ms"},
	{"hsd.refine_rois", "count"},
	{"hsd.auto_factor_ms", "ms"},
	{"hsd.weights_version_ms", "ms"},
	{"hsd.raster_key_ms", "ms"},
	{"hsd.scan_ms", "ms"},
	{"hsd.tiles_scanned", "count"},
	{"hsd.tiles_reused", "count"},
	{"tensor.gemm_packed_ms", "ms"},
	{"tensor.gemm_packed.calls", "count"},
	{"tensor.qgemm_ms", "ms"},
	{"tensor.qgemm.calls", "count"},
	{"tensor.gemm_rows_ms", "ms"},
	{"tensor.gemm_rows.calls", "count"},
	{"tensor.quantize_ms", "ms"},
	{"tensor.quantize.calls", "count"},
	{"scancache.lookups", "count"},
	{"scancache.hit_ratio", "ratio"},
	{"scancache.evictions", "count"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.p50_repeat_ms", "ms"},
	{"serve.p50_fresh_ms", "ms"},
	{"serve.p50_edit_ms", "ms"},
	{"loadgen.lag_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"runtime.gc_count", "count"},
	{"runtime.alloc_mib_per_op", "MiB"},
	{"traced_op_ms", "ms"},
	{"traced_latency_ms", "ms"},
	{"unattributed_ms", "ms"},
}

// outcome is what a workload run reports: metric values by name, the
// attempted/failed op counts, and every output check with its verdict.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	checks    []check
	notes     []string
}

type check struct {
	name string
	ok   bool
	info string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// params are the command-line inputs every workload receives.
type params struct {
	seed    int64
	seconds float64
	trace   bool
}

var workloads = map[string]func(params) (*outcome, error){
	"paper-region-int8": runRegionInt8,
	"dfm-serve":         runDFMServe,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: paper-region-int8 or dfm-serve")
	seed := flag.Int64("seed", 1, "workload seed (inputs are generated from it)")
	seconds := flag.Float64("seconds", 50, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}

	parallel.SetWorkers(1)
	runtime.GOMAXPROCS(1)
	host := hostFacts()
	fmt.Println("host:", host)
	if g, q := tensor.GemmKernel(), tensor.QGemmKernel(); g != wantGemmKernel || q != wantQGemmKernel {
		return fmt.Errorf("active kernels gemm=%s qgemm=%s differ from the recorded gemm=%s qgemm=%s; refusing to report numbers",
			g, q, wantGemmKernel, wantQGemmKernel)
	}
	if *seed == heldOutSeed {
		fmt.Println("note: held-out seed")
	}

	steal0, total0 := cpuTimes()
	o, err := fn(params{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		return err
	}
	steal1, total1 := cpuTimes()
	fmt.Printf("host steal %.2f%% of CPU time during the run\n",
		100*float64(steal1-steal0)/float64(max(total1-total0, 1)))

	correct := true
	for _, c := range o.checks {
		verdict := "ok  "
		if !c.ok {
			verdict, correct = "FAIL", false
		}
		fmt.Printf("check %s %-34s %s\n", verdict, c.name, c.info)
	}
	for _, n := range o.notes {
		fmt.Println("note:", n)
	}
	fmt.Printf("fail_ratio %.4f (%d failed / %d attempted)\n",
		float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)

	names := endToEnd
	if *trace == 1 {
		names = perLayer
		o.values["traced_latency_ms"] = o.values["latency_ms"]
	}
	res := result{Correct: correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, m := range names {
		v := o.values[m.name]
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("%-26s %14.4f %s\n", m.name, v, m.unit)
	}
	if res.Attempted < 1 {
		return errors.New("no op was attempted")
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// hostFacts records what the numbers were measured on.
func hostFacts() string {
	feats := cpu.X86.FeatureList()
	sort.Strings(feats)
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d workers=%d gemm_kernel=%s qgemm_kernel=%s go=%s cpu=[%s]",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), parallel.Workers(),
		tensor.GemmKernel(), tensor.QGemmKernel(), runtime.Version(), strings.Join(feats, " "))
}
