package main

import (
	"fmt"

	"f4t/internal/exp"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/stack"
	"f4t/internal/tcpproc"
	"f4t/internal/wire"
)

// churn-64k: the Linux-baseline stack alone (internal/stack). Eight
// client endpoints, one IP each, ramp to 65,536 connections against one
// server; then every connection lives a Pareto-distributed lifetime and
// each departure is replaced at once. Every connection sends one 128 B
// request once established, which the server receives; the server
// closes when the client does.
const (
	churnFlows     = 65536
	churnClients   = 8
	churnLinkGbps  = 400  // set-up packets of the ramp must not queue behind serialization
	churnStep      = 256  // driver grid, cycles
	churnDials     = 128  // opens per grid step
	churnRetry     = 32   // re-arm delay, in steps, for a due connection still handshaking
	churnMaxLifeXM = 64   // lifetime truncation, multiples of the Pareto scale
	churnOvershoot = 2048 // live connections kept above target through replacement latency
	churnXM        = 3*churnFlows + 200_000
	churnAlpha     = 1.2
	churnReq       = 128
	// churnLostCycles: a connection still handshaking this long after
	// its dial is lost (1 ms; the handshake takes microseconds).
	churnLostCycles = 250_000
)

// churnNode drives one island's endpoints: delivered packets queue and
// are handled on the node's own tick, so packet processing happens at
// deterministic cycles.
type churnNode struct {
	k             *sim.Kernel
	tr            *tracer
	eps           []*stack.Endpoint
	byIP          map[wire.Addr]*stack.Endpoint
	rxq, inactive []*wire.Packet
	demux         int64 // packets for an unknown destination IP
}

func newChurnNode(k *sim.Kernel, tr *tracer, eps []*stack.Endpoint) *churnNode {
	n := &churnNode{k: k, tr: tr, eps: eps, byIP: make(map[wire.Addr]*stack.Endpoint, len(eps))}
	for _, ep := range eps {
		n.byIP[ep.Opt.IP] = ep
	}
	return n
}

func (n *churnNode) deliver(pkt *wire.Packet) {
	n.rxq = append(n.rxq, pkt)
	n.k.Wake(n)
}

func (n *churnNode) Tick(int64) {
	q := n.rxq
	n.rxq = n.inactive[:0]
	for _, pkt := range q {
		ep := n.byIP[pkt.IP.Dst]
		if ep == nil {
			n.demux++
			continue
		}
		n.tr.enter()
		ep.HandlePacket(pkt)
		n.tr.exit(pStackRx)
		if pkt.Kind == wire.KindTCP {
			// The endpoint consumed the packet (no payload aliasing
			// without CarryBytes), so it goes back to the pool.
			wire.PutPacket(pkt)
		}
	}
	n.inactive = q[:0]
	for _, ep := range n.eps {
		n.tr.enter()
		ep.ExpireTimers()
		n.tr.exit(pStackTimers)
	}
}

func (n *churnNode) NextWork(now int64) int64 {
	if len(n.rxq) > 0 {
		return now + 1
	}
	next := sim.Dormant
	for _, ep := range n.eps {
		if d := ep.NextTimerNS(); d > 0 {
			if c := sim.NSToCycles(d); c < next {
				next = c
			}
		}
	}
	if next <= now {
		return now + 1
	}
	return next
}

// churnConn is the churn driver's record of one connection it opened.
type churnConn struct {
	c      *stack.Conn
	d      *churnDriver
	dialAt int64 // cycle
}

func (cc *churnConn) established() {
	d := cc.d
	d.established++
	d.lat.Observe((d.k.Now() - cc.dialAt) * sim.CycleNS)
	d.fresh = append(d.fresh, cc)
}

// churnDriver opens, expires and replaces connections on a fixed grid.
type churnDriver struct {
	k       *sim.Kernel
	tr      *tracer
	clients []*stack.Endpoint
	rng     *sim.Rand
	nextCli int
	wheel   map[int64][]*churnConn // expiry step → due connections
	fresh   []*churnConn           // established since the last step; request not sent yet
	lat     sim.Histogram          // connect latency, ns

	opened, established, departed, dialRejected, reqBytes int64
}

func (d *churnDriver) live() int64 { return d.established - d.departed }

func (d *churnDriver) Tick(cycle int64) {
	if cycle%churnStep != 0 {
		return
	}
	step := cycle / churnStep

	// Requests: sent from here rather than from OnEstablished, which
	// runs inside the endpoint's own processing.
	for _, cc := range d.fresh {
		if !cc.c.Closed && !cc.c.WasReset {
			d.tr.enter()
			d.reqBytes += int64(cc.c.SendModelled(churnReq, nil, nil))
			d.tr.exit(pStackCalls)
		}
	}
	d.fresh = d.fresh[:0]

	if due := d.wheel[step]; len(due) > 0 {
		delete(d.wheel, step)
		for _, cc := range due {
			c := cc.c
			switch {
			case c.Closed || c.WasReset:
			case !c.Established:
				d.wheel[step+churnRetry] = append(d.wheel[step+churnRetry], cc)
			default:
				d.departed++
				d.tr.enter()
				if d.rng.Bool(0.5) {
					c.Close() // FIN: the client carries TIME_WAIT
				} else {
					c.Abort() // RST: both sides free at once
				}
				d.tr.exit(pStackCalls)
			}
		}
	}

	want := int64(churnFlows) + churnOvershoot + d.departed
	for n := 0; n < churnDials && d.opened < want; n++ {
		cli := d.clients[d.nextCli]
		d.nextCli = (d.nextCli + 1) % len(d.clients)
		d.tr.enter()
		c := cli.Dial(exp.AddrB, 80)
		d.tr.exit(pStackCalls)
		if c == nil {
			d.dialRejected++
			continue
		}
		d.opened++
		cc := &churnConn{c: c, d: d, dialAt: cycle}
		c.OnEstablished = cc.established
		life := int64(d.rng.Pareto(churnXM, churnAlpha))
		if max := int64(churnXM * churnMaxLifeXM); life > max {
			life = max
		}
		expiry := (cycle+life)/churnStep + 1
		d.wheel[expiry] = append(d.wheel[expiry], cc)
	}
}

func (d *churnDriver) NextWork(now int64) int64 { return now - now%churnStep + churnStep }

// lost counts connections dialed more than churnLostCycles ago that
// never finished their handshake and were not reset or closed: flows the
// stack lost without counting a failure.
func (d *churnDriver) lost() int64 {
	var n int64
	for _, due := range d.wheel {
		for _, cc := range due {
			c := cc.c
			if !c.Established && !c.Closed && !c.WasReset && d.k.Now()-cc.dialAt > churnLostCycles {
				n++
			}
		}
	}
	return n
}

func churnClientAddr(i int) (wire.Addr, wire.MAC) {
	return wire.MakeAddr(10, 1, byte(i>>8), byte(1+i&0xff)), wire.MAC{2, 1, 0, 0, byte(i >> 8), byte(i)}
}

func buildChurn(e *env) *rig {
	k, tr, sd := e.k, e.tr, e.sd
	link := netsim.NewLinkOn(k, exp.IslandA, exp.IslandB, churnLinkGbps, exp.LinkPropNS, sd.link)

	srv := stack.New(k, stack.Options{
		IP: exp.AddrB, MAC: exp.MACB, Cfg: tcpproc.DefaultConfig(), Alg: "newreno",
		MaxFlows: churnFlows + churnFlows/4 + 65536, Seed: sd.engB,
	}, tr.send(link.BtoA.Send, pNetSend))
	var srvBytes int64
	srv.Listen(80, func(c *stack.Conn) {
		seen := 0
		c.OnData = func() {
			n := c.Available() // the server never consumes: Available is all delivered bytes
			srvBytes += int64(n - seen)
			seen = n
		}
		c.OnPeerClosed = func() { c.Close() }
	})
	serverNode := newChurnNode(k, tr, []*stack.Endpoint{srv})
	link.AtoB.SetSink(tr.send(serverNode.deliver, pHarness))

	// Headroom above each client's share covers connections parked in
	// TIME_WAIT.
	clients := make([]*stack.Endpoint, churnClients)
	for i := range clients {
		ip, mac := churnClientAddr(i)
		clients[i] = stack.New(k, stack.Options{
			IP: ip, MAC: mac, Cfg: tcpproc.DefaultConfig(), Alg: "newreno",
			MaxFlows: churnFlows/churnClients + 16384, Seed: sd.engA + uint64(i)*17,
		}, tr.send(link.AtoB.Send, pNetSend))
		clients[i].LearnPeer(exp.AddrB, exp.MACB)
		srv.LearnPeer(ip, mac)
	}
	clientNode := newChurnNode(k, tr, clients)
	link.BtoA.SetSink(tr.send(clientNode.deliver, pHarness))

	d := &churnDriver{k: k, tr: tr, clients: clients, rng: sim.NewRand(sd.driver), wheel: make(map[int64][]*churnConn)}
	tr.register(k, serverNode, pHarness)
	tr.register(k, clientNode, pHarness)
	tr.register(k, d, pAppsTick)

	eps := append([]*stack.Endpoint{srv}, clients...)
	ready := e.until(func() bool {
		return d.live() >= churnFlows && srv.Conns() >= churnFlows
	}, 25_000, churnFlows*8+2_000_000)

	r := &rig{
		k:        k,
		lat:      &d.lat,
		linkGbps: churnLinkGbps,
		read: func(c *counts) {
			c[cOps] = d.established
			c[cPayload] = srvBytes
			for _, ep := range eps {
				st := ep.TableStats()
				c[cStackEvents] += ep.ProcessedEvents
				c[cStackRxPkts] += ep.RxPkts
				c[cTableKicks] += st.Kicks
				c[cTableResizes] += st.Resizes
				c[cStackRejected] += ep.FlowsRejected
			}
			c[cOpened] = d.opened
			c[cLinkBytesAB] = link.AtoB.SentBytes
			c[cLinkBytesBA] = link.BtoA.SentBytes
			c[cLinkPkts] = link.AtoB.SentPkts + link.BtoA.SentPkts
			c[cLinkDropped] = link.AtoB.DroppedPkts + link.BtoA.DroppedPkts
			c[cCheckA] = d.live()
			c[cCheckB] = int64(srv.Conns())
			c[cCheckC] = d.reqBytes
			c[cRefused] = d.dialRejected + serverNode.demux + clientNode.demux
		},
	}
	if !ready {
		r.setupFailed = churnFlows - d.live()
		if r.setupFailed < 1 {
			r.setupFailed = 1
		}
	}
	r.check = func(end counts) error {
		if diff := end[cCheckA] - end[cCheckB]; diff > churnOvershoot || diff < -churnOvershoot {
			return fmt.Errorf("driver live %d vs server connections %d: off by more than %d", end[cCheckA], end[cCheckB], churnOvershoot)
		}
		if n := d.lost(); n > 0 {
			return fmt.Errorf("%d connections lost: no handshake, no reset, no counted refusal", n)
		}
		if end[cPayload] > end[cCheckC] {
			return fmt.Errorf("server received %d request bytes, clients sent %d", end[cPayload], end[cCheckC])
		}
		return nil
	}
	// Warm up for one Pareto scale, so departures are under way when
	// the window opens.
	e.run(churnXM)
	return r
}
