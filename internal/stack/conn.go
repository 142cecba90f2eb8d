package stack

import (
	"f4t/internal/cc"
	"f4t/internal/datapath"
	"f4t/internal/flow"
	"f4t/internal/seqnum"
)

// Conn is one TCP connection's host-side view: the byte-stream pointers
// the application manipulates (write/consume) plus the mirrors maintained
// from stack notifications.
//
// Fields are ordered so the struct packs into 144 B, the per-connection
// cost the flow-scale memory accounting reports.
type Conn struct {
	ep     *Endpoint
	TCB    *flow.TCB
	alg    cc.Algorithm
	txRing *datapath.Ring
	rxRing *datapath.Ring // the parser's receive ring; unread once freed
	ID     flow.ID
	meta   datapath.FlowMeta

	// Host-visible mirrors (updated by notifications).
	Established bool
	PeerClosed  bool
	Closed      bool
	WasReset    bool
	AckedTo     seqnum.Value // send bytes below this are released
	DeliveredTo seqnum.Value // in-order received data boundary

	// App-side pointers.
	writePtr    seqnum.Value // next send byte the app will queue
	readPtr     seqnum.Value // next received byte the app will consume
	ptrsInit    bool
	closeCalled bool

	passive  bool
	accepted bool
	freed    bool

	// App callbacks (all optional).
	OnEstablished func()
	OnData        func()
	OnAcked       func()
	OnPeerClosed  func()
	OnClosed      func()
}

// Alg exposes the connection's congestion-control instance (read-only use).
func (c *Conn) Alg() cc.Algorithm { return c.alg }

// initPtrs lazily anchors the app byte-stream pointers once the handshake
// has fixed both ISNs.
func (c *Conn) initPtrs() {
	if c.ptrsInit {
		return
	}
	c.writePtr = c.TCB.ISS.Add(1)
	c.readPtr = c.TCB.IRS.Add(1)
	if c.AckedTo == 0 {
		c.AckedTo = c.writePtr
	}
	if c.DeliveredTo == 0 {
		c.DeliveredTo = c.readPtr
	}
	c.ptrsInit = true
}

// SendSpace returns the free send-buffer bytes: a send() larger than this
// blocks (blocking sockets) or short-writes (non-blocking), §4.1.1.
func (c *Conn) SendSpace() int {
	c.initPtrs()
	used := int(c.writePtr.DistanceFrom(c.AckedTo))
	space := int(c.ep.Opt.Cfg.RcvBuf) - used
	if space < 0 {
		space = 0
	}
	return space
}

// Send queues data for transmission, copying into the TX ring (byte mode)
// and advancing the REQ pointer. It returns the number of bytes accepted,
// bounded by the free send-buffer space.
func (c *Conn) Send(data []byte) int {
	n := c.SendModelled(len(data), func(seq seqnum.Value, chunk []byte) {
		if c.txRing != nil {
			c.txRing.WriteAt(seq, chunk)
		}
	}, data)
	return n
}

// SendModelled queues n bytes without supplying payload (modelled-only
// transfers). store may be nil. It returns the accepted byte count.
func (c *Conn) SendModelled(n int, store func(seq seqnum.Value, chunk []byte), data []byte) int {
	if c.freed || c.closeCalled {
		return 0
	}
	c.initPtrs()
	space := c.SendSpace()
	if n > space {
		n = space
	}
	if n <= 0 {
		return 0
	}
	if store != nil && data != nil {
		store(c.writePtr, data[:n])
	}
	c.writePtr = c.writePtr.Add(seqnum.Size(n))
	ev := flow.Event{Kind: flow.EvUser, Flow: c.ID, HasReq: true, Req: c.writePtr}
	c.ep.Inject(c, &ev)
	return n
}

// Available returns the in-order received bytes not yet consumed.
func (c *Conn) Available() int {
	c.initPtrs()
	return int(c.DeliveredTo.DistanceFrom(c.readPtr))
}

// Recv consumes up to max available bytes and returns them (byte mode) or
// a nil slice with the count (modelled mode). Consuming advances the
// application-read pointer, which reopens the advertised window via a
// user event — recv() goes to hardware in F4T (§4.2.1).
func (c *Conn) Recv(max int) ([]byte, int) {
	c.initPtrs()
	n := c.Available()
	if n > max {
		n = max
	}
	if n <= 0 {
		return nil, 0
	}
	var out []byte
	if c.rxRing != nil && !c.freed {
		out = c.rxRing.ReadAt(c.readPtr, n)
	}
	c.readPtr = c.readPtr.Add(seqnum.Size(n))
	ev := flow.Event{Kind: flow.EvUser, Flow: c.ID, HasRead: true, AppRead: c.readPtr}
	c.ep.Inject(c, &ev)
	return out, n
}

// The split-effect surface below mirrors softstack.Socket's: pure ring
// copies that are invisible to the simulation, separated from the
// Inject calls that advance protocol state. netapi performs the copies
// while simulated time is frozen and defers the Injects into one
// deterministic per-tick pass. Valid only once Established (pointers
// anchored).

// WritePtr returns the next send byte the app will queue.
func (c *Conn) WritePtr() seqnum.Value { c.initPtrs(); return c.writePtr }

// ReadPtr returns the next received byte the app will consume.
func (c *Conn) ReadPtr() seqnum.Value { c.initPtrs(); return c.readPtr }

// ReadAt copies delivered bytes starting at ptr into buf without
// consuming them (the consume is PostRecv). The caller must keep
// [ptr, ptr+len(buf)) within [readPtr, DeliveredTo).
func (c *Conn) ReadAt(ptr seqnum.Value, buf []byte) {
	if c.rxRing != nil && !c.freed {
		c.rxRing.ReadInto(ptr, buf)
	}
}

// WriteAt stages payload bytes into the TX ring at ptr without injecting
// a user event (that is PostSend). The staged span must lie within the
// free send space above writePtr.
func (c *Conn) WriteAt(ptr seqnum.Value, data []byte) {
	if c.txRing != nil {
		c.txRing.WriteAt(ptr, data)
	}
}

// PostSend advances the REQ pointer to ptr with one user event (payload
// already staged via WriteAt). Always succeeds — the software stack has
// no command queue to fill; the bool return matches the softstack shape.
func (c *Conn) PostSend(ptr seqnum.Value) bool {
	if c.freed || c.closeCalled || ptr == c.writePtr {
		return true
	}
	c.writePtr = ptr
	ev := flow.Event{Kind: flow.EvUser, Flow: c.ID, HasReq: true, Req: ptr}
	c.ep.Inject(c, &ev)
	return true
}

// PostRecv advances the consumed pointer to ptr, re-opening the
// advertised window (bytes up to ptr were already copied out via
// ReadAt).
func (c *Conn) PostRecv(ptr seqnum.Value) bool {
	if c.freed || ptr == c.readPtr {
		return true
	}
	c.readPtr = ptr
	ev := flow.Event{Kind: flow.EvUser, Flow: c.ID, HasRead: true, AppRead: ptr}
	c.ep.Inject(c, &ev)
	return true
}

// Close initiates an orderly shutdown (FIN after queued data).
func (c *Conn) Close() {
	if c.freed || c.closeCalled {
		return
	}
	c.closeCalled = true
	ev := flow.Event{Kind: flow.EvUser, Flow: c.ID, Ctl: flow.CtlClose}
	c.ep.Inject(c, &ev)
}

// Abort resets the connection immediately.
func (c *Conn) Abort() {
	if c.freed {
		return
	}
	ev := flow.Event{Kind: flow.EvUser, Flow: c.ID, Ctl: flow.CtlAbort}
	c.ep.Inject(c, &ev)
}
