package main

import (
	"time"

	"f4t/internal/sim"
	"f4t/internal/wire"
)

// probe names one public entry point the traced run times from outside
// the program. Each probe belongs to one layer; a layer's self time is
// the sum of its probes' self times.
type probe int

const (
	pEngineTick  probe = iota // engine.Engine.Tick
	pEngineRx                 // engine.Engine.DeliverPacket (link sink)
	pHostTick                 // host.F4TMachine.Tick
	pAppsTick                 // apps.* Tick, and the churn driver's Tick
	pNetSend                  // netsim.Pipe.Send
	pStackRx                  // stack.Endpoint.HandlePacket
	pStackTimers              // stack.Endpoint.ExpireTimers
	pStackCalls               // stack.Endpoint.Dial, stack.Conn.Close/Abort/SendModelled
	pHarness                  // the benchmark's own tickers (latency observer, churn nodes)
	numProbes
)

var probeLayer = [numProbes]string{
	pEngineTick:  "engine",
	pEngineRx:    "engine",
	pHostTick:    "host",
	pAppsTick:    "apps",
	pNetSend:     "netsim",
	pStackRx:     "stack",
	pStackTimers: "stack",
	pStackCalls:  "stack",
	pHarness:     "harness",
}

// layers lists the wall-clock accounts of the traced run in report
// order. "sim" is the remainder: kernel dispatch, the quiescence scan
// (every NextWork call), timer-heap work and timer callbacks that no
// probe covers.
var layers = []string{"sim", "engine", "host", "apps", "netsim", "stack", "harness"}

// tracer charges wall time to probes. Spans nest: a span's duration is
// subtracted from the span that encloses it, so every nanosecond inside
// a probe lands in exactly one probe's self time. A nil *tracer is the
// untraced run: enter, exit and reset do nothing, register registers the
// component alone and send returns its argument unchanged.
type tracer struct {
	base  time.Time
	stack []frame
	self  [numProbes]int64 // ns
	calls [numProbes]int64
}

type frame struct{ start, child int64 }

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) enter() {
	if t == nil {
		return
	}
	t.stack = append(t.stack, frame{start: int64(time.Since(t.base))})
}

func (t *tracer) exit(p probe) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.base))
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := end - f.start
	t.self[p] += d - f.child
	t.calls[p]++
	if n > 0 {
		t.stack[n-1].child += d
	}
}

// reset clears the accounts at the start of the measured window.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.self = [numProbes]int64{}
	t.calls = [numProbes]int64{}
}

// layerSelf sums the self time of every probe in the layer.
func (t *tracer) layerSelf(layer string) int64 {
	var ns int64
	for p := probe(0); p < numProbes; p++ {
		if probeLayer[p] == layer {
			ns += t.self[p]
		}
	}
	return ns
}

// register adds a component to the kernel. When traced, the component
// is bracketed by two markers registered right before and after it:
// tickers tick in registration order, so the markers time exactly its
// Tick. The component itself stays registered under its own identity,
// which keeps the kernel's Wake(component) hints and NextWork calls as
// they are untraced; the markers report Dormant and never cause a step.
// Markers renumber later registration slots but keep their order, and
// they schedule no timers, so timer firing order is unchanged.
func (t *tracer) register(k *sim.Kernel, s sim.Sleeper, p probe) {
	if t == nil {
		k.Register(s)
		return
	}
	k.Register(&marker{tr: t, p: p, begin: true})
	k.Register(s)
	k.Register(&marker{tr: t, p: p})
}

// marker opens (begin) or closes a tracer span when ticked.
type marker struct {
	tr    *tracer
	p     probe
	begin bool
}

func (m *marker) Tick(int64) {
	if m.begin {
		m.tr.enter()
	} else {
		m.tr.exit(m.p)
	}
}

func (m *marker) NextWork(int64) int64 { return sim.Dormant }

// send wraps a packet function (a link Send or a link sink).
func (t *tracer) send(f func(*wire.Packet), p probe) func(*wire.Packet) {
	if t == nil {
		return f
	}
	return func(pkt *wire.Packet) {
		t.enter()
		f(pkt)
		t.exit(p)
	}
}
