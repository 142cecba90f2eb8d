// Command perfbench is the repository's benchmark: four paper-shaped
// workloads on the serial sim.Kernel, measured on two clocks. The
// simulated clock gives the Gbps, Mops and µs the paper reports; the
// wall clock gives what simulating them costs. See README.md.
//
//	go run . --workload echo-4k --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value's name, unit and direction.
type metric struct {
	name, unit, better string
}

// endToEndMetrics are printed by every untraced run, in this order.
var endToEndMetrics = []metric{
	{"sim_us_per_s", "us_sim/s", "higher"},
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"sim_mops", "Mops_sim", "higher"},
	{"sim_goodput_gbps", "Gbps_sim", "higher"},
	{"sim_lat_p50_us", "us_sim", "lower"},
	{"sim_lat_p999_us", "us_sim", "lower"},
}

// perLayerMetrics are printed by every traced run, in this order.
var perLayerMetrics = []metric{
	{"sim.stepped_frac", "ratio", "lower"},
	{"sim.skips_per_ms", "1/ms_sim", "higher"},
	{"sim.self_ns_per_step", "ns/step", "lower"},
	{"engine.tick_ns_per_step", "ns/step", "lower"},
	{"engine.rx_ns_per_pkt", "ns/pkt", "lower"},
	{"engine.rx_dropped", "count", "lower"},
	{"engine.retrans_segs", "count", "lower"},
	{"engine.flows_rejected", "count", "lower"},
	{"engine.rx_queue_max", "pkts", "lower"},
	{"memmgr.hit_frac", "ratio", "higher"},
	{"memmgr.swaps_per_op", "swaps/op", "lower"},
	{"sched.coalesced_frac", "ratio", "higher"},
	{"sched.migrations_per_kop", "migr/kop", "lower"},
	{"sched.backpressure", "count", "lower"},
	{"sched.pending_max", "events", "lower"},
	{"fpc.stall_frac", "ratio", "lower"},
	{"fpc.processed_per_op", "passes/op", "lower"},
	{"hostif.pcie_util_to_device", "ratio", "lower"},
	{"hostif.pcie_util_to_host", "ratio", "lower"},
	{"hostif.tlps_per_op", "tlps/op", "lower"},
	{"hostif.backlog_max", "cycles", "lower"},
	{"netsim.link_util", "ratio", "higher"},
	{"netsim.dropped_pkts", "count", "lower"},
	{"netsim.send_ns_per_pkt", "ns/pkt", "lower"},
	{"host.tick_ns_per_step", "ns/step", "lower"},
	{"softstack.cmds_per_op", "cmds/op", "lower"},
	{"softstack.post_failures", "count", "lower"},
	{"apps.tick_ns_per_step", "ns/step", "lower"},
	{"stack.rx_ns_per_pkt", "ns/pkt", "lower"},
	{"stack.timers_ns_per_step", "ns/step", "lower"},
	{"stack.events_per_conn", "events/conn", "lower"},
	{"stack.table_kicks_per_insert", "kicks/insert", "lower"},
	{"stack.table_resizes", "count", "lower"},
	{"stack.flows_rejected", "count", "lower"},
	{"go.allocs_per_step", "allocs/step", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"sim.self_share", "ratio", "lower"},
	{"engine.self_share", "ratio", "lower"},
	{"host.self_share", "ratio", "lower"},
	{"apps.self_share", "ratio", "lower"},
	{"netsim.self_share", "ratio", "lower"},
	{"stack.self_share", "ratio", "lower"},
	{"harness.self_share", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// paperRef holds the paper's number for a (workload, metric) pair where
// the repository has one.
var paperRef = map[[2]string]float64{
	{"bulk-128", "sim_goodput_gbps"}: 87, // Fig 8a: F4T bulk, 128 B requests, 2 cores
}

// setups is how many times an untraced run builds its rig; setup_s is
// the median.
const setups = 3

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: echo-4k, bulk-128, nginx-64 or churn-64k")
	seed := fs.Uint64("seed", 1, "seed for every engine, link and driver RNG")
	seconds := fs.Float64("seconds", 10, "nominal wall seconds of the measured window; fixes its simulated length")
	trace := fs.Int("trace", 0, "1: per-layer run (untraced, then traced, same seed and lengths)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload <name> --seed <n> --seconds <s> --trace <0|1>:", err)
		return 2
	}
	res := execute(w, *seed, w.windowCycles(*seconds), *trace == 1, stdout)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// execute runs the workload and prints the report; the returned result
// is the final JSON line.
func execute(w *workload, seed uint64, cycles int64, traced bool, out io.Writer) *result {
	fmt.Fprintf(out, "perfbench %s seed=%d window=%d cycles (%.3f ms simulated) trace=%v\n",
		w.name, seed, cycles, float64(cycles)*4/1e6, traced)
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(out, "workload: %s\n", w.why)

	n := setups
	if traced {
		n = 1
	}
	base := measure(w, seed, cycles, n, nil)
	errs := base.errs()
	report(out, base)
	shown := base
	metricSet, values := endToEndMetrics, base.endToEnd()
	if traced {
		tr := measure(w, seed, cycles, 1, newTracer())
		errs = append(errs, tr.errs()...)
		if b, t := base.digest(), tr.digest(); b != t {
			errs = append(errs, fmt.Errorf("traced digest %016x != untraced %016x: tracing changed the model", t, b))
		}
		metricSet, values = perLayerMetrics, tr.perLayer()
		values["trace.overhead_frac"] = base.win.rate()/tr.win.rate() - 1
		shown = tr
		reportLayers(out, tr, values)
	}

	res := &result{Correct: len(errs) == 0, Metrics: map[string]value{}}
	for _, m := range metricSet {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			errs = append(errs, fmt.Errorf("metric %s is %v", m.name, v))
			v = 0
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	res.Correct = len(errs) == 0
	res.Failed = shown.win.failed
	res.Attempted = shown.win.d[cOps] + shown.win.failed
	if !res.Correct {
		res.Failed = res.Attempted
	}
	if res.Attempted < 1 {
		res.Attempted, res.Failed = 1, 1
	}
	fmt.Fprintf(out, "ops %d ops_failed %d failed_frac %.6g\n", res.Attempted-res.Failed, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, e := range errs {
		fmt.Fprintln(out, "CHECK FAILED:", e)
	}
	fmt.Fprintf(out, "digest %016x correct=%v\n", shown.digest(), res.Correct)
	return res
}

// report prints the untraced run's end-to-end metrics, with the paper's
// number where the repository holds one, and its window counters.
func report(out io.Writer, r *run) {
	vals := r.endToEnd()
	for _, m := range endToEndMetrics {
		v := vals[m.name]
		var note string
		switch {
		case m.name == "sim_us_per_s":
			note = fmt.Sprintf("wall clock, reference seconds; upper quartile of %d segments: %s", segments, floats(r.win.segUS))
		case m.name == "setup_s":
			note = "wall clock, reference seconds; median of " + floats(r.setupS)
		case m.name == "heap_mb":
			note = "wall clock"
		default:
			note = "no paper reference (unvalidated)"
			if ref, ok := paperRef[[2]string{r.w.name, m.name}]; ok {
				note = fmt.Sprintf("paper %g, relative error %+.1f%%", ref, 100*(v-ref)/ref)
			}
			if m.name == "sim_lat_p999_us" {
				note = fmt.Sprintf("%d samples; %s", r.win.latN, note)
			}
		}
		fmt.Fprintf(out, "  %-18s %14.6g %-9s %s\n", m.name, v, m.unit, note)
	}
	fmt.Fprintf(out, "host speed vs reference, per segment: %s\n", floats(r.win.segSpeed))
	fmt.Fprintf(out, "raw wall rate: %.6g us_sim per wall second\n",
		float64(r.win.cycles)*4/1e3/(float64(r.win.wallNS)/1e9))
	fmt.Fprintln(out, "window counters (end / window difference):")
	for i, name := range countNames {
		if r.win.end[i] != 0 {
			fmt.Fprintf(out, "  %-20s %16d %14d\n", name, r.win.end[i], r.win.d[i])
		}
	}
}

// reportLayers prints the traced run's per-layer metrics and the
// wall-time account of its window.
func reportLayers(out io.Writer, r *run, vals map[string]float64) {
	fmt.Fprintf(out, "traced window: %.3f s wall, %d stepped cycles\n", float64(r.win.wallNS)/1e9, r.win.stepped())
	for _, l := range layers {
		share := vals[l+".self_share"]
		fmt.Fprintf(out, "  %-8s self %8.3f s  %6.1f%%\n", l, share*float64(r.win.wallNS)/1e9, 100*share)
	}
	names := make([]string, 0, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-30s %.6g\n", n, vals[n])
	}
}

func floats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(s, " ")
}
