// Package conformance is a deterministic, seed-driven TCP chaos and
// differential-testing harness. It drives two endpoints — any pairing of
// the software stack and the FtEngine model — through reproducible fault
// schedules (loss, reordering, duplication, forged resets, zero-window
// stalls, tiny-segment storms, connection churn) while checking protocol
// invariants on every sampled TCB: sequence-space monotonicity, RFC 793
// state-machine legality, timer sanity, byte-stream integrity, and
// drain-to-quiescence liveness. Every run is a pure function of its
// seed, so any failure replays exactly; a failing seed shrinks to the
// shortest reproducing schedule prefix via Minimize.
package conformance

import (
	"fmt"
	"strings"

	"f4t/internal/engine"
	"f4t/internal/flow"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/softstack"
	"f4t/internal/stack"
	"f4t/internal/tcpproc"
	"f4t/internal/wire"
)

// RigKind selects the endpoint pairing under test.
type RigKind int

// The rig pairings: software stack on both ends, the FtEngine model
// against the software stack (differential), FtEngine on both ends, and
// FtEngine on both ends joined through an output-queued router instead
// of a point-to-point link.
const (
	RigSoftSoft RigKind = iota
	RigEngineSoft
	RigEngineEngine
	RigEngineEngineRouted
)

// AllRigs lists every pairing, in sweep order.
var AllRigs = []RigKind{RigSoftSoft, RigEngineSoft, RigEngineEngine, RigEngineEngineRouted}

var rigNames = [...]string{"soft-soft", "engine-soft", "engine-engine", "engine-engine-routed"}

// String returns the rig's command-line name.
func (r RigKind) String() string {
	if int(r) < len(rigNames) {
		return rigNames[r]
	}
	return "unknown"
}

// ParseRig resolves a command-line rig name.
func ParseRig(s string) (RigKind, error) {
	for i, n := range rigNames {
		if s == n {
			return RigKind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown rig %q (want %s)", s, strings.Join(rigNames[:], ", "))
}

// Conn is the substrate-independent view of one connection under test.
type Conn interface {
	Established() bool
	Reset() bool      // the connection was reset
	Done() bool       // fully terminated
	PeerClosed() bool // the peer's FIN was delivered
	LocalPort() uint16
	PeerPort() uint16
	Send(b []byte) int
	Recv(max int) ([]byte, int)
	Available() int
	Close()
	Abort()
}

// Endpoint hides which substrate (software stack, or engine + library)
// one side of the rig runs on.
type Endpoint interface {
	Name() string
	Listen()
	Dial() Conn
	// Poll pumps host-side completions and returns connections accepted
	// since the previous call.
	Poll() []Conn
	VisitTCBs(fn func(*flow.TCB))
	// OowRstDrops returns how many inbound RSTs this side discarded for
	// failing sequence validation.
	OowRstDrops() int64
	// FlowSlotViolations returns how many flow IDs this side freed or
	// reused while one of its layers still held state for them.
	FlowSlotViolations() int64
}

// rigPort is the listening port every rig uses.
const rigPort = 80

// rigRcvBuf keeps receive buffers small so zero-window phases actually
// pinch the window shut within a phase's worth of traffic.
const rigRcvBuf = 64 * 1024

// Islands of a rig on a sim.Fabric: endpoint A (dialer) and endpoint B
// (listener). On a sharded fabric the two endpoints run on separate
// goroutines with the link's latency as the synchronization lookahead.
const (
	islandA = 0
	islandB = 1
	// The routed rig's switch lives on its own island, so a sharded run
	// exercises the router/endpoint barriers too.
	rigRouterIsland = 2
)

// Rig is one two-endpoint test network: A dials, B listens.
type Rig struct {
	Kind RigKind
	R    sim.Runner  // fabric driving the rig (serial kernel or sharded)
	K    *sim.Kernel // the serial kernel; nil when the rig runs sharded
	Link *netsim.Link
	A, B Endpoint

	// Forged-RST injectors, one per direction (toward B, toward A).
	InjToB, InjToA *rstInjector
}

// SetFaults applies one fault profile to both directions.
func (r *Rig) SetFaults(f netsim.Faults) {
	r.Link.AtoB.SetFaults(f)
	r.Link.BtoA.SetFaults(f)
}

// SetRSTEvery arms (or, with 0, disarms) forged-RST injection on both
// directions.
func (r *Rig) SetRSTEvery(n int64) {
	r.InjToB.every = n
	r.InjToA.every = n
}

// ForgedRSTs returns the total resets forged so far, both directions.
func (r *Rig) ForgedRSTs() int64 { return r.InjToB.forged + r.InjToA.forged }

// NewRig builds the requested pairing on a 100 Gbps / 600 ns link over
// a fresh serial kernel. All randomness (ISNs, link fault draws)
// derives from seed, so two rigs with the same kind and seed evolve
// identically.
func NewRig(kind RigKind, seed uint64) *Rig {
	return NewRigOn(sim.New(), kind, seed)
}

// NewRigOn builds the pairing on any fabric with both endpoints running
// newreno, the harness default.
func NewRigOn(f sim.Fabric, kind RigKind, seed uint64) *Rig {
	return NewRigAlgOn(f, kind, seed, "newreno")
}

// NewRigAlgOn builds the pairing on any fabric with both endpoints
// running the named congestion-control program (endpoint A on islandA,
// endpoint B on islandB). Construction and registration order is fixed,
// so a sharded rig reproduces a serial rig's results bit for bit (the
// shard matrix test in shard_test.go holds it to that). A dctcp rig
// enables ECN end to end; with no marking discipline on the rig's link
// the program degrades to its loss response, which is exactly the
// chaos-weather path the sweep wants to exercise.
func NewRigAlgOn(f sim.Fabric, kind RigKind, seed uint64, alg string) *Rig {
	if alg == "" {
		alg = "newreno"
	}
	kA, kB := f.IslandKernel(islandA), f.IslandKernel(islandB)
	ipA, ipB := wire.MakeAddr(10, 9, 0, 1), wire.MakeAddr(10, 9, 0, 2)
	macA, macB := wire.MAC{2, 9, 0, 0, 0, 1}, wire.MAC{2, 9, 0, 0, 0, 2}

	r := &Rig{Kind: kind, R: f}
	if k, ok := f.(*sim.Kernel); ok {
		r.K = k
	}

	// The endpoints either face each other over a point-to-point link or
	// hang off a one-switch star. Either way r.Link names the two pipes
	// faults inject on: for the routed rig those are the uplinks, so the
	// fault schedule hits before the router queues, like a real host NIC.
	var topo *netsim.Topology
	var txA, txB func(*wire.Packet)
	if kind == RigEngineEngineRouted {
		specs := []netsim.NodeSpec{
			{Addr: ipA, MAC: macA, Island: islandA, Gbps: 100, PropNS: 600},
			{Addr: ipB, MAC: macB, Island: islandB, Gbps: 100, PropNS: 600},
		}
		topo = netsim.NewStarOn(f, rigRouterIsland, specs, netsim.DropTail(0), seed*4+1)
		r.Link = &netsim.Link{AtoB: topo.Uplinks[0], BtoA: topo.Uplinks[1]}
		txA, txB = topo.NodeTX(0), topo.NodeTX(1)
	} else {
		r.Link = netsim.NewLinkOn(f, islandA, islandB, 100, 600, seed*4+1)
		txA, txB = r.Link.AtoB.Send, r.Link.BtoA.Send
	}

	var deliverA, deliverB func(*wire.Packet)
	var tickA, tickB sim.Ticker

	switch kind {
	case RigSoftSoft:
		a := newStackEnd(kA, "A", ipA, macA, ipB, seed*4+2, alg, txA)
		b := newStackEnd(kB, "B", ipB, macB, ipA, seed*4+3, alg, txB)
		a.ep.LearnPeer(ipB, macB)
		b.ep.LearnPeer(ipA, macA)
		deliverA, deliverB = a.deliver, b.deliver
		tickA, tickB = a, b
		r.A, r.B = a, b
	case RigEngineSoft:
		a := newEngineEnd(kA, "A", ipA, macA, ipB, seed*4+2, alg, txA)
		b := newStackEnd(kB, "B", ipB, macB, ipA, seed*4+3, alg, txB)
		a.eng.LearnPeer(ipB, macB)
		b.ep.LearnPeer(ipA, macA)
		deliverA, deliverB = a.deliver, b.deliver
		tickA, tickB = a.eng, b
		r.A, r.B = a, b
	case RigEngineEngine, RigEngineEngineRouted:
		a := newEngineEnd(kA, "A", ipA, macA, ipB, seed*4+2, alg, txA)
		b := newEngineEnd(kB, "B", ipB, macB, ipA, seed*4+3, alg, txB)
		a.eng.LearnPeer(ipB, macB)
		b.eng.LearnPeer(ipA, macA)
		deliverA, deliverB = a.deliver, b.deliver
		tickA, tickB = a.eng, b.eng
		r.A, r.B = a, b
	default:
		panic("conformance: unknown rig kind")
	}
	f.RegisterOn(islandA, tickA)
	f.RegisterOn(islandB, tickB)

	r.InjToB = &rstInjector{next: deliverB}
	r.InjToA = &rstInjector{next: deliverA}
	if topo != nil {
		topo.SetNodeSink(0, r.InjToA.deliver)
		topo.SetNodeSink(1, r.InjToB.deliver)
	} else {
		r.Link.AtoB.SetSink(r.InjToB.deliver)
		r.Link.BtoA.SetSink(r.InjToA.deliver)
	}
	return r
}

// --- software-stack endpoint ---

type stackEnd struct {
	name     string
	k        *sim.Kernel
	ep       *stack.Endpoint
	peer     wire.Addr
	rx       []*wire.Packet
	accepted []Conn
}

func newStackEnd(k *sim.Kernel, name string, ip wire.Addr, mac wire.MAC, peer wire.Addr, seed uint64, alg string, tx func(*wire.Packet)) *stackEnd {
	cfg := tcpproc.DefaultConfig()
	cfg.RcvBuf = rigRcvBuf
	cfg.ECN = alg == "dctcp"
	ep := stack.New(k, stack.Options{
		IP: ip, MAC: mac, Cfg: cfg, Alg: alg, CarryBytes: true, Seed: seed,
	}, tx)
	// Registered by NewRigOn so slots are assigned in fabric order.
	return &stackEnd{name: name, k: k, ep: ep, peer: peer}
}

// deliver is the link sink. Packets queue and are processed on the
// endpoint's own tick: a delivery callback may be a cross-shard
// injection running under a foreign slot, which must not synchronously
// schedule local timers (responses transmit from Tick instead).
func (s *stackEnd) deliver(p *wire.Packet) {
	s.rx = append(s.rx, p)
	s.k.Wake(s)
}

// Tick drains queued RX packets (responses, if any, transmit here under
// the endpoint's own slot) and then expires stack timers.
func (s *stackEnd) Tick(cycle int64) {
	for len(s.rx) > 0 {
		p := s.rx[0]
		s.rx = s.rx[1:]
		s.ep.HandlePacket(p)
	}
	s.ep.Tick(cycle)
}

func (s *stackEnd) Name() string { return s.name }

func (s *stackEnd) Listen() {
	s.ep.Listen(rigPort, func(c *stack.Conn) {
		s.accepted = append(s.accepted, &stackConn{c: c})
	})
}

func (s *stackEnd) Dial() Conn {
	c := s.ep.Dial(s.peer, rigPort)
	if c == nil {
		return nil
	}
	return &stackConn{c: c}
}

func (s *stackEnd) Poll() []Conn {
	out := s.accepted
	s.accepted = nil
	return out
}

func (s *stackEnd) VisitTCBs(fn func(*flow.TCB)) {
	s.ep.EachConn(func(c *stack.Conn) { fn(c.TCB) })
}

func (s *stackEnd) OowRstDrops() int64 { return s.ep.RxOowRsts }

func (s *stackEnd) FlowSlotViolations() int64 { return 0 }

type stackConn struct{ c *stack.Conn }

func (c *stackConn) Established() bool          { return c.c.Established }
func (c *stackConn) Reset() bool                { return c.c.WasReset }
func (c *stackConn) Done() bool                 { return c.c.Closed || c.c.WasReset }
func (c *stackConn) PeerClosed() bool           { return c.c.PeerClosed }
func (c *stackConn) LocalPort() uint16          { return c.c.TCB.Tuple.LocalPort }
func (c *stackConn) PeerPort() uint16           { return c.c.TCB.Tuple.RemotePort }
func (c *stackConn) Send(b []byte) int          { return c.c.Send(b) }
func (c *stackConn) Recv(max int) ([]byte, int) { return c.c.Recv(max) }
func (c *stackConn) Available() int             { return c.c.Available() }
func (c *stackConn) Close()                     { c.c.Close() }
func (c *stackConn) Abort()                     { c.c.Abort() }

// --- engine + library endpoint ---

type engineEnd struct {
	name string
	eng  *engine.Engine
	lib  *softstack.Lib
	peer wire.Addr
}

func newEngineEnd(k *sim.Kernel, name string, ip wire.Addr, mac wire.MAC, peer wire.Addr, seed uint64, alg string, tx func(*wire.Packet)) *engineEnd {
	cfg := engine.DefaultConfig()
	cfg.IP, cfg.MAC, cfg.Seed = ip, mac, seed
	cfg.Alg = alg
	cfg.CarryBytes = true
	cfg.Proto.RcvBuf = rigRcvBuf
	cfg.Proto.ECN = alg == "dctcp"
	eng := engine.New(k, cfg, tx)
	// Registered by NewRigOn so slots are assigned in fabric order.
	return &engineEnd{name: name, eng: eng, lib: softstack.NewLib(k, eng, 0), peer: peer}
}

func (e *engineEnd) deliver(p *wire.Packet) { e.eng.DeliverPacket(p) }

func (e *engineEnd) Name() string { return e.name }

func (e *engineEnd) Listen() { e.lib.Listen(rigPort) }

func (e *engineEnd) Dial() Conn {
	s := e.lib.Dial(e.peer, rigPort)
	if s == nil {
		return nil
	}
	return &sockConn{s: s, end: e}
}

func (e *engineEnd) Poll() []Conn {
	var out []Conn
	for _, ev := range e.lib.Poll() {
		if ev.Kind == softstack.EvAccepted {
			out = append(out, &sockConn{s: ev.Sock, end: e})
		}
	}
	return out
}

func (e *engineEnd) VisitTCBs(fn func(*flow.TCB)) { e.eng.VisitTCBs(fn) }

func (e *engineEnd) OowRstDrops() int64 { return e.eng.OowRstDrops.Total() }

func (e *engineEnd) FlowSlotViolations() int64 { return e.eng.FlowSlotViolations.Total() }

type sockConn struct {
	s   *softstack.Socket
	end *engineEnd
}

func (c *sockConn) Established() bool { return c.s.Established }
func (c *sockConn) Reset() bool       { return c.s.WasReset }
func (c *sockConn) Done() bool        { return c.s.Closed || c.s.WasReset }
func (c *sockConn) PeerClosed() bool  { return c.s.PeerClosed }
func (c *sockConn) LocalPort() uint16 { return c.s.LocalPort() }

func (c *sockConn) PeerPort() uint16 {
	if t := c.end.eng.TCB(c.s.ID); t != nil {
		return t.Tuple.RemotePort
	}
	return 0
}

func (c *sockConn) Send(b []byte) int          { return c.s.Send(b) }
func (c *sockConn) Recv(max int) ([]byte, int) { return c.s.Recv(max) }
func (c *sockConn) Available() int             { return c.s.Available() }
func (c *sockConn) Close()                     { c.s.Close() }
func (c *sockConn) Abort()                     { c.s.Abort() }

// --- forged-RST injection ---

// rstInjector sits between a pipe and its sink. While armed, every
// every-th payload-bearing or ACK packet is preceded by a forged RST
// whose sequence number is displaced a deterministic 1 GiB from the
// segment it shadows — far outside any receive window, so RFC-conformant
// sequence validation must discard every single one. SYN and RST
// segments are never shadowed (a forged reset "for" a SYN would need the
// ACK-validation path instead, and resets never answer resets).
type rstInjector struct {
	next   func(*wire.Packet)
	every  int64
	seen   int64
	forged int64
}

// rstDisplacement pushes forged resets out of any plausible window
// (windows top out at 2 MB; this is 1 GiB).
const rstDisplacement = 1 << 30

func (ri *rstInjector) deliver(pkt *wire.Packet) {
	if ri.every > 0 && pkt.Kind == wire.KindTCP &&
		pkt.TCP.Flags&(wire.FlagRST|wire.FlagSYN) == 0 {
		ri.seen++
		if ri.seen%ri.every == 0 {
			forged := pkt.Clone()
			forged.TCP.Flags = wire.FlagRST
			forged.TCP.Seq = pkt.TCP.Seq.Add(rstDisplacement)
			forged.TCP.Ack = 0
			forged.PayloadLen, forged.Payload = 0, nil
			ri.forged++
			ri.next(forged)
		}
	}
	ri.next(pkt)
}
