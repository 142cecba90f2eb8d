package main

import (
	"fmt"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/engine/memmgr"
	"f4t/internal/exp"
	"f4t/internal/host"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/telemetry"
	"f4t/internal/wire"
)

// rig is one workload, built, ramped and warmed up: everything the
// measured window reads.
type rig struct {
	k           *sim.Kernel
	setupFailed int64          // operations failed in set-up: flows not up within the budget
	lat         *sim.Histogram // latency samples, simulated ns; reset at window start
	linkGbps    int64
	fpcs        int64                  // FPCs across both engines (0: no engine)
	read        func(c *counts)        // cumulative counters
	sample      func(g *gauges)        // gauges on the window grid (nil: none)
	check       func(end counts) error // conservation checks on the counters at window end
}

// seeds are the per-run seeds derived from --seed.
type seeds struct {
	engA, engB, link, driver uint64
}

func deriveSeeds(seed uint64) seeds {
	r := sim.NewRand(seed)
	return seeds{
		engA:   r.Uint64(),
		engB:   r.Uint64(),
		link:   r.Uint64(),
		driver: r.Uint64(),
	}
}

// f4tPair is the two-node F4T testbed, built from the same public
// constructors and in the same order as exp.NewF4TPairOn, with the
// benchmark's probes spliced in when traced.
type f4tPair struct {
	reg          *telemetry.Registry
	engA, engB   *engine.Engine
	machA, machB *host.F4TMachine

	// Registry names read on every gauge sample, built once.
	rxQueue, pending, backlogDev, backlogHost []string
	libCmds, postFails                        []string
}

func newF4TPair(k *sim.Kernel, tr *tracer, sd seeds, coresA, coresB int, mutate func(*engine.Config)) *f4tPair {
	link := netsim.NewLinkOn(k, exp.IslandA, exp.IslandB, exp.LinkGbps, exp.LinkPropNS, sd.link)
	cfg := engine.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	cfgA, cfgB := cfg, cfg
	cfgA.IP, cfgA.MAC, cfgA.Seed, cfgA.Channels = exp.AddrA, exp.MACA, sd.engA, coresA
	cfgB.IP, cfgB.MAC, cfgB.Seed, cfgB.Channels = exp.AddrB, exp.MACB, sd.engB, coresB

	engA := engine.New(k, cfgA, tr.send(link.AtoB.Send, pNetSend))
	engB := engine.New(k, cfgB, tr.send(link.BtoA.Send, pNetSend))
	link.AtoB.SetSink(tr.send(engB.DeliverPacket, pEngineRx))
	link.BtoA.SetSink(tr.send(engA.DeliverPacket, pEngineRx))
	engA.LearnPeer(exp.AddrB, exp.MACB)
	engB.LearnPeer(exp.AddrA, exp.MACA)

	costs := cpu.DefaultCosts()
	machA := host.NewF4TMachine(k, engA, coresA, costs, []wire.Addr{exp.AddrB})
	machB := host.NewF4TMachine(k, engB, coresB, costs, []wire.Addr{exp.AddrA})
	tr.register(k, engA, pEngineTick)
	tr.register(k, engB, pEngineTick)
	tr.register(k, machA, pHostTick)
	tr.register(k, machB, pHostTick)

	p := &f4tPair{reg: telemetry.NewRegistry(), engA: engA, engB: engB, machA: machA, machB: machB}
	engA.Instrument(p.reg, "a")
	engB.Instrument(p.reg, "b")
	machA.Instrument(p.reg, "ma")
	machB.Instrument(p.reg, "mb")
	link.Instrument(p.reg, "link")
	for _, s := range engineSides {
		p.rxQueue = append(p.rxQueue, s+".rx_queue")
		p.pending = append(p.pending, s+".sched.pending_events")
		p.backlogDev = append(p.backlogDev, s+".pcie.backlog_to_device")
		p.backlogHost = append(p.backlogHost, s+".pcie.backlog_to_host")
	}
	for i := 0; i < coresA+coresB; i++ {
		m, t := "ma", i
		if i >= coresA {
			m, t = "mb", i-coresA
		}
		p.libCmds = append(p.libCmds, fmt.Sprintf("%s.t%d.lib.cmds_posted", m, t))
		p.postFails = append(p.postFails, fmt.Sprintf("%s.t%d.lib.post_failures", m, t))
	}
	return p
}

// engineSides lists the registry prefixes of the two engines.
var engineSides = []string{"a", "b"}

func (p *f4tPair) v(name string) int64 {
	x, ok := p.reg.Value(name)
	if !ok {
		panic("perfbench: metric not registered: " + name)
	}
	return x
}

func (p *f4tPair) fpcs() int64 { return int64(len(p.engA.FPCs()) + len(p.engB.FPCs())) }

// read fills the engine, hostif, softstack and netsim counters from the
// layers' Instrument registry references.
func (p *f4tPair) read(c *counts) {
	for i, eng := range []*engine.Engine{p.engA, p.engB} {
		s := engineSides[i]
		c[cRxPkts] += p.v(s + ".rx_pkts")
		c[cRxDropped] += p.v(s + ".rx_dropped")
		c[cRetrans] += p.v(s + ".retrans_segs")
		c[cEngRejected] += p.v(s + ".flows_rejected")
		c[cMemHits] += p.v(s + ".mem.cache_hits")
		c[cMemMiss] += p.v(s + ".mem.cache_miss")
		c[cSwapReqs] += p.v(s + ".mem.swap_reqs")
		c[cRouted] += p.v(s + ".sched.routed")
		c[cCoalesced] += p.v(s + ".sched.coalesced")
		c[cMigrations] += p.v(s + ".sched.migrations")
		c[cBackpressure] += p.v(s + ".sched.backpressure")
		for f := range eng.FPCs() {
			c[cFPCStalls] += p.v(fmt.Sprintf("%s.fpc%d.stalls", s, f))
			c[cFPCProcessed] += p.v(fmt.Sprintf("%s.fpc%d.processed", s, f))
		}
		c[cTLPs] += p.v(s+".pcie.tlps_to_device") + p.v(s+".pcie.tlps_to_host")
	}
	c[cPCIeBusyDevA], c[cPCIeBusyHostA] = pcieBusy(p.engA)
	c[cPCIeBusyDevB], c[cPCIeBusyHostB] = pcieBusy(p.engB)
	for i := range p.libCmds {
		c[cLibCmds] += p.v(p.libCmds[i])
		c[cPostFailures] += p.v(p.postFails[i])
	}
	c[cLinkBytesAB] = p.v("link.a_to_b.sent_bytes")
	c[cLinkBytesBA] = p.v("link.b_to_a.sent_bytes")
	c[cLinkPkts] = p.v("link.a_to_b.sent_pkts") + p.v("link.b_to_a.sent_pkts")
	c[cLinkDropped] = p.v("link.a_to_b.dropped_pkts") + p.v("link.b_to_a.dropped_pkts")
}

// sample folds the engines' instantaneous queue gauges into g.
func (p *f4tPair) sample(g *gauges) {
	for i := range engineSides {
		raise(&g.rxQueueMax, p.v(p.rxQueue[i]))
		raise(&g.pendingMax, p.v(p.pending[i]))
		raise(&g.pcieBacklogMax, p.v(p.backlogDev[i]))
		raise(&g.pcieBacklogMax, p.v(p.backlogHost[i]))
	}
}

// pcieBusy converts the PCIe model's cumulative utilization back into
// busy cycles (exact: both factors are integers below 2^53).
func pcieBusy(e *engine.Engine) (toDev, toHost int64) {
	now := e.K.Now()
	d, h := e.PCIe.Utilization()
	return int64(d*float64(now) + 0.5), int64(h*float64(now) + 0.5)
}

// f4tRig fills the parts of a rig every F4T workload shares.
func f4tRig(k *sim.Kernel, p *f4tPair, lat *sim.Histogram, read func(c *counts)) *rig {
	return &rig{
		k:        k,
		lat:      lat,
		linkGbps: exp.LinkGbps,
		fpcs:     p.fpcs(),
		read: func(c *counts) {
			p.read(c)
			read(c)
		},
		sample: p.sample,
	}
}

// buildEcho is echo-4k: Fig 13's echo on F4T-HBM, 8 cores per side,
// 4,096 closed-loop flows of 128 B messages.
func buildEcho(e *env) *rig {
	k, tr, sd := e.k, e.tr, e.sd
	const cores, flows, port, msg = 8, 4096, 9001, 128
	p := newF4TPair(k, tr, sd, cores, cores, func(c *engine.Config) {
		c.Memory = memmgr.HBM
		c.CarryBytes = false
	})
	var srvM, cliM meter
	srv := apps.NewEchoServer(srvM.wrap(p.machB.Threads()), port, msg)
	tr.register(k, srv, pAppsTick)
	e.run(2_000)
	cli := apps.NewEchoClient(k, cliM.wrap(p.machA.Threads()), 0, port, msg, flows/cores)
	tr.register(k, cli, pAppsTick)

	e.until(cli.Ready, 50_000, 5_000_000+flows*400)
	r := f4tRig(k, p, &cli.Latency, func(c *counts) {
		c[cOps] = cli.Requests.Total()
		c[cPayload] = cliM.recvBytes + srvM.recvBytes
		c[cCheckA] = srvM.sends // echoes served
		c[cCheckB] = cliM.sends // requests sent
	})
	r.setupFailed = flows - int64(cli.Established())
	r.check = func(end counts) error {
		served, trips, sent := end[cCheckA], end[cOps], end[cCheckB]
		if d := served - trips; d < 0 || d > flows {
			return fmt.Errorf("echoes served %d vs round trips %d: more than one in flight per flow", served, trips)
		}
		if d := sent - served; d < 0 || d > flows {
			return fmt.Errorf("requests sent %d vs echoes served %d: more than one in flight per flow", sent, served)
		}
		return nil
	}
	e.run(exp.DefaultWarmup)
	return r
}

// buildBulk is bulk-128: Fig 8a's headline point, 2 sender cores (one
// flow each) to 8 receiver cores, back-to-back 128 B send()s.
func buildBulk(e *env) *rig {
	k, tr, sd := e.k, e.tr, e.sd
	const flows, port, req = 2, 5001, 128
	p := newF4TPair(k, tr, sd, flows, 8, nil)
	sink := apps.NewSink(p.machB.Threads(), port)
	tr.register(k, sink, pAppsTick)
	e.run(2_000)
	b := apps.NewBulkSender(p.machA.Threads(), 0, port, req)
	tr.register(k, b, pAppsTick)
	obs := &streamDelay{k: k, accepted: &b.Bytes, delivered: &sink.Delivered, next: markBytes}
	tr.register(k, obs, pHarness)

	ready := e.until(b.Ready, 10_000, 20_000_000)
	r := f4tRig(k, p, &obs.hist, func(c *counts) {
		c[cOps] = b.Requests.Total()
		c[cPayload] = sink.Delivered.Total()
		c[cCheckA] = b.Bytes.Total() // bytes accepted by send()
	})
	if !ready {
		r.setupFailed = flows
	}
	r.check = func(end counts) error {
		if end[cPayload] > end[cCheckA] {
			return fmt.Errorf("bytes delivered %d exceed bytes accepted %d", end[cPayload], end[cCheckA])
		}
		return nil
	}
	e.run(exp.DefaultWarmup)
	return r
}

// buildNginx is nginx-64: Fig 12's point, an F4T server with one core
// and a 16-core wrk client holding 64 keepalive flows, 128 B requests
// and 256 B responses.
func buildNginx(e *env) *rig {
	k, tr, sd := e.k, e.tr, e.sd
	const clientCores, flows, port, req, resp = 16, 64, 80, 128, 256
	costs := cpu.DefaultCosts()
	p := newF4TPair(k, tr, sd, clientCores, 1, func(c *engine.Config) { c.CarryBytes = false })
	var srvM, cliM meter
	srv := apps.NewHTTPServer(srvM.wrap(p.machB.Threads()), port, req, resp, costs)
	tr.register(k, srv, pAppsTick)
	e.run(2_000)
	wrk := apps.NewWrk(k, cliM.wrap(p.machA.Threads()), 0, port, req, resp, flows/clientCores, costs)
	tr.register(k, wrk, pAppsTick)

	e.until(wrk.Ready, 20_000, 20_000_000)
	r := f4tRig(k, p, &wrk.Latency, func(c *counts) {
		c[cOps] = wrk.Responses.Total()
		c[cPayload] = cliM.recvBytes + srvM.recvBytes
		c[cCheckA] = srv.Requests.Total() // responses sent by the server
		c[cCheckB] = cliM.sends           // requests sent by wrk
	})
	r.setupFailed = flows - cliM.established()
	r.check = func(end counts) error {
		resps, served, sent := end[cOps], end[cCheckA], end[cCheckB]
		if resps > served || served > sent {
			return fmt.Errorf("responses %d, served %d, requests %d: want responses <= served <= requests", resps, served, sent)
		}
		if sent-resps > flows {
			return fmt.Errorf("requests %d vs responses %d: more than one in flight per flow", sent, resps)
		}
		return nil
	}
	e.run(exp.DefaultWarmup)
	return r
}

// markBytes is the stream-delay sampling stride for bulk-128.
const markBytes = 2048

// streamDelay samples bulk-128's latency: the send-to-delivery delay of
// the aggregate byte stream. Each time the senders' cumulative accepted
// bytes cross a multiple of markBytes the cycle is stamped; the delay
// is recorded when the receivers' cumulative delivered bytes cross the
// same mark. It ticks after every other component, so it sees each
// stepped cycle's final counts; counters only move on stepped cycles,
// so it needs no steps of its own (NextWork is Dormant).
type streamDelay struct {
	k                   *sim.Kernel
	accepted, delivered *sim.Counter
	next                int64
	marks               []mark
	head                int
	hist                sim.Histogram
}

type mark struct{ bytes, ns int64 }

func (s *streamDelay) Tick(int64) {
	now := s.k.NowNS()
	for a := s.accepted.Total(); a >= s.next; s.next += markBytes {
		s.marks = append(s.marks, mark{s.next, now})
	}
	for d := s.delivered.Total(); s.head < len(s.marks) && d >= s.marks[s.head].bytes; s.head++ {
		s.hist.Observe(now - s.marks[s.head].ns)
	}
	if s.head > 1024 && 2*s.head > len(s.marks) {
		s.marks = s.marks[:copy(s.marks, s.marks[s.head:])]
		s.head = 0
	}
}

func (s *streamDelay) NextWork(int64) int64 { return sim.Dormant }

// meter counts, from outside the app, what an app moves through its
// sockets: it wraps the app's threads, and the threads wrap the
// connections they hand out.
type meter struct {
	sends     int64 // send calls that queued at least one byte
	recvBytes int64
	dialed    []host.Conn
}

func (m *meter) wrap(ths []host.Thread) []host.Thread {
	out := make([]host.Thread, len(ths))
	for i, th := range ths {
		out[i] = &meteredThread{Thread: th, m: m, conns: make(map[host.Conn]*meteredConn)}
	}
	return out
}

func (m *meter) established() int64 {
	var n int64
	for _, c := range m.dialed {
		if c.Established() {
			n++
		}
	}
	return n
}

type meteredThread struct {
	host.Thread
	m     *meter
	conns map[host.Conn]*meteredConn
	evs   []host.ConnEvent
}

// EventsPending forwards the thread's idleness probe, which the apps'
// NextWork relies on to let the kernel skip.
func (t *meteredThread) EventsPending() bool {
	return t.Thread.(interface{ EventsPending() bool }).EventsPending()
}

func (t *meteredThread) conn(c host.Conn) *meteredConn {
	mc := t.conns[c]
	if mc == nil {
		mc = &meteredConn{Conn: c, m: t.m}
		t.conns[c] = mc
	}
	return mc
}

func (t *meteredThread) Dial(remoteIdx int, port uint16) host.Conn {
	c := t.Thread.Dial(remoteIdx, port)
	if c == nil {
		return nil
	}
	mc := t.conn(c)
	t.m.dialed = append(t.m.dialed, mc)
	return mc
}

func (t *meteredThread) Poll() []host.ConnEvent {
	evs := t.Thread.Poll()
	if len(evs) == 0 {
		return evs
	}
	out := t.evs[:0]
	for _, ev := range evs {
		out = append(out, host.ConnEvent{Kind: ev.Kind, Conn: t.conn(ev.Conn)})
		if ev.Kind == host.EvHangup {
			delete(t.conns, ev.Conn)
		}
	}
	t.evs = out
	return out
}

type meteredConn struct {
	host.Conn
	m *meter
}

func (c *meteredConn) sent(n int) int {
	if n > 0 {
		c.m.sends++
	}
	return n
}

func (c *meteredConn) recv(n int) int {
	c.m.recvBytes += int64(n)
	return n
}

func (c *meteredConn) TrySend(n int, payload []byte) int { return c.sent(c.Conn.TrySend(n, payload)) }

func (c *meteredConn) SendQueued(n int, payload []byte) int {
	return c.sent(c.Conn.SendQueued(n, payload))
}

func (c *meteredConn) TryRecv(max int) int    { return c.recv(c.Conn.TryRecv(max)) }
func (c *meteredConn) RecvQueued(max int) int { return c.recv(c.Conn.RecvQueued(max)) }
