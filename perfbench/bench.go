package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"f4t/internal/sim"
)

// workload is one named rig with its window sizing.
type workload struct {
	name string
	why  string
	// rate is the nominal number of simulated cycles per second on the
	// reference host (2 CPUs). It converts --seconds into a fixed
	// simulated window, so every sim_* value is a pure function of the
	// seed and --seconds.
	rate  int64
	grid  int64 // gauge-sampling grid, cycles
	build func(e *env) *rig
}

// env is what a workload's build gets: the kernel to build on, the
// tracer (nil untraced), the seeds, and the set-up clock. Builds step
// the kernel only through run and until, which interleave the clock's
// calibration chunks.
type env struct {
	k     *sim.Kernel
	tr    *tracer
	sd    seeds
	clk   *clock
	piece int64 // cycles between calibration chunks
}

// run advances n cycles.
func (e *env) run(n int64) {
	for n > 0 {
		p := min(n, e.piece)
		e.k.Run(p)
		n -= p
		e.clk.chunk()
	}
}

// until is exp.RunUntilCoarse stepping through run: it advances until
// pred holds, checking it on a fixed grid of step cycles, for at most
// budget cycles.
func (e *env) until(pred func() bool, step, budget int64) bool {
	end := e.k.Now() + budget
	for {
		if pred() {
			return true
		}
		if e.k.Now() >= end {
			return false
		}
		e.run(min(step, end-e.k.Now()))
	}
}

var workloads = []workload{
	{
		name: "echo-4k",
		why:  "Fig 13 echo, 4,096 flows on F4T-HBM: 4x the FPC slots, so per-flow state (memmgr swaps, flow-ID maps, timerq) dominates; every cycle stepped",
		rate: 170_000, grid: 2_500, build: buildEcho,
	},
	{
		name: "bulk-128",
		why:  "Fig 8a headline, 128 B sends from 2 cores: the per-request host path (softstack, hostif PCIe) and per-packet datapath/netsim at line rate",
		rate: 1_050_000, grid: 10_000, build: buildBulk,
	},
	{
		name: "nginx-64",
		why:  "Fig 12 point, 1-core server, 64 keepalive flows: latency-bound, ~95% of cycles skipped, so kernel quiescence scan and timers dominate",
		rate: 6_000_000, grid: 100_000, build: buildNginx,
	},
	{
		name: "churn-64k",
		why:  "Linux-baseline stack at 65,536 connections under Pareto churn: flow-table, timer-wheel and TCB insert/delete and the allocating path",
		rate: 450_000, grid: 10_000, build: buildChurn,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// segments splits the window for the wall-clock median.
const segments = 16

// windowCycles converts a wall-time budget into the workload's fixed
// simulated window: a whole number of segments of whole grid steps.
func (w *workload) windowCycles(seconds float64) int64 {
	unit := segments * w.grid
	n := int64(math.Round(seconds * float64(w.rate) / float64(unit)))
	if n < 1 {
		n = 1
	}
	return n * unit
}

// window is the measured part of one run.
type window struct {
	cycles        int64
	start, end, d counts
	g             gauges
	wallNS        int64     // wall time inside Kernel.Run over the window
	segUS         []float64 // simulated µs per reference second, per segment
	segSpeed      []float64 // host speed during each segment (calib.go)
	mallocs       uint64
	gcCPU, cpu    float64 // CPU seconds in the collector / in the process
	heapBytes     int64   // live heap at window end, less the heap before set-up
	latN          int
	lat50, lat999 int64 // ns
	latErr        error
	checkErr      error
	failed        int64 // operations failed: set-up plus window refusals
	tr            *tracer
	fpcs          int64
	linkGbps      int64
}

// run is one run of one workload: set-up repeated setups times (the
// window runs on the last rig), then the window.
type run struct {
	w            *workload
	seed         uint64
	setupS       []float64
	setupDigests []uint64
	win          window
}

func readAll(r *rig, c *counts) {
	*c = counts{}
	c[cCycle] = r.k.Now()
	c[cSkipped] = r.k.SkippedCycles()
	c[cSkips] = r.k.Skips()
	r.read(c)
}

func cpuSeconds() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[0].Value.Float64() + s[1].Value.Float64()
}

func measure(w *workload, seed uint64, cycles int64, setups int, tr *tracer) *run {
	out := &run{w: w, seed: seed}
	sd := deriveSeeds(seed)
	var r *rig
	baseHeap := liveHeap()
	for i := 0; i < setups; i++ {
		r = nil
		runtime.GC()
		var c clock
		e := &env{k: sim.New(), tr: tr, sd: sd, clk: &c, piece: w.grid}
		t0 := time.Now()
		r = w.build(e)
		c.chunk()
		c.wall = time.Since(t0) - c.calibWall
		out.setupS = append(out.setupS, c.refSeconds())
		var st counts
		readAll(r, &st)
		out.setupDigests = append(out.setupDigests, digestCounts(st))
	}

	win := &out.win
	win.cycles, win.tr, win.fpcs, win.linkGbps = cycles, tr, r.fpcs, r.linkGbps
	perSeg := cycles / segments / w.grid
	r.lat.Reset()
	readAll(r, &win.start)
	if r.sample != nil {
		r.sample(&win.g)
	}
	runtime.GC()
	tr.reset()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := cpuSeconds()
	step := func() { r.k.Run(w.grid) }
	for s := 0; s < segments; s++ {
		var c clock
		for i := int64(0); i < perSeg; i++ {
			c.time(step)
			if r.sample != nil {
				r.sample(&win.g)
			}
		}
		win.wallNS += c.wall.Nanoseconds()
		win.segUS = append(win.segUS, float64(perSeg*w.grid*sim.CycleNS)/1e3/c.refSeconds())
		win.segSpeed = append(win.segSpeed, c.speed())
	}
	gc1, cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	win.mallocs = m1.Mallocs - m0.Mallocs
	win.gcCPU, win.cpu = gc1-gc0, cpu1-cpu0
	readAll(r, &win.end)
	win.d = win.end.sub(win.start)

	win.latN = r.lat.Count()
	win.lat50 = r.lat.Quantile(0.5)
	win.lat999, win.latErr = tailQuantile(r.lat, 0.999)
	win.checkErr = r.check(win.end)
	win.failed = r.setupFailed + win.d[cEngRejected] + win.d[cStackRejected] + win.d[cRefused]

	win.heapBytes = liveHeap() - baseHeap
	runtime.KeepAlive(r)
	return out
}

// liveHeap returns the live Go heap in bytes. The second collection
// empties sync.Pool's victim cache, which the first only fills.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailQuantile returns the nearest-rank q-quantile, refusing when fewer
// than minTail samples lie beyond it: such a percentile is one sample's
// noise, not a tail.
func tailQuantile(h *sim.Histogram, q float64) (int64, error) {
	n := h.Count()
	if beyond := n - int(q*float64(n)); beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; the window holds %d samples, %d beyond", q*100, minTail, n, beyond)
	}
	return h.Quantile(q), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rate is sim_us_per_s: the upper quartile (nearest rank) of the
// segments' rates. Interference from other tenants only ever slows a
// segment down, so the faster segments track the undisturbed cost (see
// README.md, "Reference seconds").
func (w *window) rate() float64 {
	s := append([]float64(nil), w.segUS...)
	sort.Float64s(s)
	return s[(3*len(s)+3)/4-1]
}

func (w *window) simSeconds() float64 { return float64(w.cycles) * sim.CycleNS / 1e9 }

func (w *window) stepped() int64 { return w.cycles - w.d[cSkipped] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// simMetrics are the deterministic end-to-end values, in simulated time.
func (w *window) simMetrics() map[string]float64 {
	return map[string]float64{
		"sim_mops":         float64(w.d[cOps]) / w.simSeconds() / 1e6,
		"sim_goodput_gbps": float64(w.d[cPayload]) * 8 / w.simSeconds() / 1e9,
		"sim_lat_p50_us":   float64(w.lat50) / 1e3,
		"sim_lat_p999_us":  float64(w.lat999) / 1e3,
	}
}

// endToEnd returns every end-to-end metric of the run.
func (r *run) endToEnd() map[string]float64 {
	m := r.win.simMetrics()
	m["sim_us_per_s"] = r.win.rate()
	m["setup_s"] = median(r.setupS)
	m["heap_mb"] = float64(r.win.heapBytes) / (1 << 20)
	return m
}

// perLayer returns every per-layer metric. Wall-time metrics need the
// tracer and are 0 without it; layers a rig does not have read 0.
func (r *run) perLayer() map[string]float64 {
	w := &r.win
	d := &w.d
	ops := float64(d[cOps])
	stepped := float64(w.stepped())
	cyc := float64(w.cycles)
	m := map[string]float64{
		"sim.stepped_frac": stepped / cyc,
		"sim.skips_per_ms": float64(d[cSkips]) / (w.simSeconds() * 1e3),

		"engine.rx_dropped":     float64(d[cRxDropped]),
		"engine.retrans_segs":   float64(d[cRetrans]),
		"engine.flows_rejected": float64(d[cEngRejected]),
		"engine.rx_queue_max":   float64(w.g.rxQueueMax),

		"memmgr.hit_frac":     ratio(float64(d[cMemHits]), float64(d[cMemHits]+d[cMemMiss])),
		"memmgr.swaps_per_op": ratio(float64(d[cSwapReqs]), ops),

		"sched.coalesced_frac":     ratio(float64(d[cCoalesced]), float64(d[cRouted]+d[cCoalesced])),
		"sched.migrations_per_kop": ratio(1e3*float64(d[cMigrations]), ops),
		"sched.backpressure":       float64(d[cBackpressure]),
		"sched.pending_max":        float64(w.g.pendingMax),

		"fpc.stall_frac":       ratio(float64(d[cFPCStalls]), cyc*float64(w.fpcs)),
		"fpc.processed_per_op": ratio(float64(d[cFPCProcessed]), ops),

		"hostif.pcie_util_to_device": float64(max(d[cPCIeBusyDevA], d[cPCIeBusyDevB])) / cyc,
		"hostif.pcie_util_to_host":   float64(max(d[cPCIeBusyHostA], d[cPCIeBusyHostB])) / cyc,
		"hostif.tlps_per_op":         ratio(float64(d[cTLPs]), ops),
		"hostif.backlog_max":         float64(w.g.pcieBacklogMax),

		"netsim.link_util":    float64(max(d[cLinkBytesAB], d[cLinkBytesBA])) * 8 / (float64(w.linkGbps) * 1e9 * w.simSeconds()),
		"netsim.dropped_pkts": float64(d[cLinkDropped]),

		"softstack.cmds_per_op":        ratio(float64(d[cLibCmds]), ops),
		"softstack.post_failures":      float64(d[cPostFailures]),
		"stack.events_per_conn":        ratio(float64(d[cStackEvents]), ops),
		"stack.table_kicks_per_insert": ratio(float64(d[cTableKicks]), 2*float64(d[cOpened])),
		"stack.table_resizes":          float64(d[cTableResizes]),
		"stack.flows_rejected":         float64(d[cStackRejected]),

		"go.allocs_per_step": float64(w.mallocs) / stepped,
		"go.gc_cpu_frac":     ratio(w.gcCPU, w.cpu),
	}
	tr := w.tr
	if tr == nil {
		tr = &tracer{}
	}
	perStep := func(p probe) float64 { return float64(tr.self[p]) / stepped }
	perCall := func(p probe) float64 { return ratio(float64(tr.self[p]), float64(tr.calls[p])) }
	var probed int64
	for _, ns := range tr.self {
		probed += ns
	}
	simSelf := w.wallNS - probed
	m["sim.self_ns_per_step"] = float64(simSelf) / stepped
	m["engine.tick_ns_per_step"] = perStep(pEngineTick)
	m["engine.rx_ns_per_pkt"] = perCall(pEngineRx)
	m["netsim.send_ns_per_pkt"] = perCall(pNetSend)
	m["host.tick_ns_per_step"] = perStep(pHostTick)
	m["apps.tick_ns_per_step"] = perStep(pAppsTick)
	m["stack.rx_ns_per_pkt"] = perCall(pStackRx)
	m["stack.timers_ns_per_step"] = perStep(pStackTimers)
	for _, l := range layers {
		ns := simSelf
		if l != "sim" {
			ns = tr.layerSelf(l)
		}
		m[l+".self_share"] = float64(ns) / float64(w.wallNS)
	}
	return m
}

// digest fingerprints everything the simulation decided in the run:
// every counter at window end and its window difference, the gauge
// maxima, the latency sample count and every sim_* value (floats folded
// through Float64bits). Wall-clock values stay out.
func (r *run) digest() uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	h.Write([]byte(r.w.name))
	put(r.seed)
	w := &r.win
	put(uint64(w.cycles))
	for i := range w.end {
		put(uint64(w.end[i]))
		put(uint64(w.d[i]))
	}
	put(uint64(w.g.rxQueueMax))
	put(uint64(w.g.pendingMax))
	put(uint64(w.g.pcieBacklogMax))
	put(uint64(w.latN))
	sm := w.simMetrics()
	for _, name := range simMetricNames {
		put(math.Float64bits(sm[name]))
	}
	return h.Sum64()
}

var simMetricNames = []string{"sim_mops", "sim_goodput_gbps", "sim_lat_p50_us", "sim_lat_p999_us"}

// digestCounts fingerprints one counter reading (the state a set-up
// ends in).
func digestCounts(c counts) uint64 {
	h := fnv.New64a()
	for _, v := range c {
		var b [8]byte
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// errs collects every failed correctness condition of a run.
func (r *run) errs() []error {
	var out []error
	for i, d := range r.setupDigests {
		if d != r.setupDigests[0] {
			out = append(out, fmt.Errorf("set-up %d ended in state %016x, set-up 1 in %016x: not deterministic", i+1, d, r.setupDigests[0]))
		}
	}
	if r.win.latErr != nil {
		out = append(out, r.win.latErr)
	}
	if r.win.checkErr != nil {
		out = append(out, r.win.checkErr)
	}
	if r.win.d[cOps] == 0 {
		out = append(out, errors.New("no operation completed in the window"))
	}
	return out
}
