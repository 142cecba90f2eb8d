// Package softstack models the F4T library and runtime (§4.1.1, §4.6):
// the userspace layer that turns POSIX-style socket calls into 16 B
// commands on per-thread queues, polls completion queues (the software
// doorbell), maintains the small amount of host-side metadata (window
// pointers), and surfaces epoll-style readiness events.
//
// One Lib instance corresponds to one application thread and owns one
// command/completion queue pair, so the stack shares nothing across
// threads and needs no locks (§4.6).
package softstack

import (
	"f4t/internal/engine"
	"f4t/internal/flow"
	"f4t/internal/hostif"
	"f4t/internal/seqnum"
	"f4t/internal/sim"
	"f4t/internal/wire"
)

// EventKind is an epoll-style readiness event.
type EventKind uint8

// Readiness events surfaced by Poll.
const (
	EvReadable  EventKind = iota // new in-order data available
	EvWritable                   // send-buffer space released
	EvAccepted                   // new passive connection established
	EvConnected                  // active connect finished
	EvHangup                     // peer closed or reset
)

// Event is one epoll entry (the library's internal linked list of
// events, §4.1.1).
type Event struct {
	Kind EventKind
	Sock *Socket
}

// Lib is one thread's F4T library instance.
type Lib struct {
	k     *sim.Kernel
	eng   *engine.Engine
	ch    *hostif.Channel
	chIdx int

	socks     []*Socket          // indexed by flow ID; nil = no socket
	dialWait  map[uint16]*Socket // local port → socket awaiting CompAccepted
	listeners map[uint16]bool
	nextPort  uint16

	events []Event
	spare  []Event // double-buffer recycled by TakeEvents

	// Stats.
	CmdsPosted     int64
	CompsProcessed int64
	PostFailures   int64 // full command queue (blocking-API path)
}

// NewLib binds a library instance to channel chIdx of the engine.
func NewLib(k *sim.Kernel, eng *engine.Engine, chIdx int) *Lib {
	l := &Lib{
		k:         k,
		eng:       eng,
		ch:        eng.Channels[chIdx],
		chIdx:     chIdx,
		dialWait:  make(map[uint16]*Socket),
		listeners: make(map[uint16]bool),
		nextPort:  uint16(10000 + chIdx*2000),
	}
	eng.AddSlotProbe(func() int64 { return int64(cap(l.socks)) * 8 }) // one pointer per flow ID
	return l
}

// sock returns the socket bound to a flow ID, or nil.
func (l *Lib) sock(id flow.ID) *Socket {
	if int(id) < len(l.socks) {
		return l.socks[id]
	}
	return nil
}

// bind records s as the socket of its flow ID.
func (l *Lib) bind(s *Socket) {
	for int(s.ID) >= len(l.socks) {
		l.socks = append(l.socks, nil)
	}
	l.socks[s.ID] = s
}

// post sends one command, tracking queue-full back-offs.
func (l *Lib) post(cmd hostif.Command) bool {
	if !l.ch.Post(cmd) {
		l.PostFailures++
		return false
	}
	l.CmdsPosted++
	return true
}

// Listen registers this thread as an acceptor for the port
// (SO_REUSEPORT: several threads may listen on the same port, §4.6).
// It reports whether the listen command was posted (false = command
// queue full; the caller retries, as netapi's effect pass does).
func (l *Lib) Listen(port uint16) bool {
	l.listeners[port] = true
	return l.post(hostif.Command{Op: hostif.OpListen, LocalPort: port})
}

// Dial starts an active open and returns the socket (not yet
// established; poll for EvConnected). It returns nil when the command
// queue is full — the caller retries, as a blocking connect() would.
func (l *Lib) Dial(remote wire.Addr, remotePort uint16) *Socket {
	l.nextPort++
	s := &Socket{lib: l, localPort: l.nextPort}
	if !l.post(hostif.Command{
		Op:         hostif.OpConnect,
		LocalPort:  l.nextPort,
		RemoteAddr: remote,
		RemotePort: remotePort,
	}) {
		return nil
	}
	l.dialWait[l.nextPort] = s
	return s
}

// Poll drains the completion queue (polling the software doorbell,
// §4.1.1), updates socket state, and returns every readiness event
// accumulated since the previous take (including those drained earlier
// via PollOne).
func (l *Lib) Poll() []Event {
	for {
		comp, ok := l.ch.PopCompletion()
		if !ok {
			break
		}
		l.CompsProcessed++
		l.apply(comp)
	}
	return l.TakeEvents()
}

// PollOne consumes a single completion; used by CPU-costed drivers that
// charge per completion. It reports whether one was available.
func (l *Lib) PollOne() bool {
	comp, ok := l.ch.PopCompletion()
	if !ok {
		return false
	}
	l.CompsProcessed++
	l.apply(comp)
	return true
}

// PendingCompletions exposes the completion backlog.
func (l *Lib) PendingCompletions() int { return l.ch.PendingCompletions() }

// PendingEvents returns readiness events already drained from the
// completion queue but not yet taken by the application.
func (l *Lib) PendingEvents() int { return len(l.events) }

// TakeEvents returns the readiness events accumulated by PollOne calls
// since the last take, clearing the list. CPU-costed drivers pair PollOne
// (charged per completion) with TakeEvents (free — the events were
// already paid for).
//
// The returned slice is valid only until the next take: the list
// double-buffers, so the buffer handed out now becomes the accumulation
// target after the next take. Callers that iterate the events before
// polling again (every driver in the tree) never notice; nothing may
// retain the slice across polls.
func (l *Lib) TakeEvents() []Event {
	out := l.events
	l.events = l.spare[:0]
	l.spare = out
	return out
}

func (l *Lib) apply(comp hostif.Completion) {
	switch comp.Kind {
	case hostif.CompAccepted:
		// Correlate an active open's hardware flow ID by local port.
		if s := l.dialWait[comp.Port]; s != nil {
			delete(l.dialWait, comp.Port)
			s.ID = comp.Flow
			s.bound = true
			l.bind(s)
		}
	case hostif.CompEstablished:
		s := l.sock(comp.Flow)
		if s == nil {
			// Passive connection dispatched to this thread's queue.
			if !l.listeners[comp.Port] {
				return
			}
			s = &Socket{lib: l, ID: comp.Flow, localPort: comp.Port, bound: true, passive: true}
			l.bind(s)
		}
		s.anchor(comp.Seq, comp.Seq2)
		s.Established = true
		if s.passive {
			l.events = append(l.events, Event{Kind: EvAccepted, Sock: s})
		} else {
			l.events = append(l.events, Event{Kind: EvConnected, Sock: s})
		}
	case hostif.CompAcked:
		if s := l.sock(comp.Flow); s != nil {
			s.ackedTo = comp.Seq
			l.events = append(l.events, Event{Kind: EvWritable, Sock: s})
		}
	case hostif.CompDelivered:
		if s := l.sock(comp.Flow); s != nil {
			s.deliveredTo = comp.Seq
			l.events = append(l.events, Event{Kind: EvReadable, Sock: s})
		}
	case hostif.CompPeerClosed:
		if s := l.sock(comp.Flow); s != nil {
			s.PeerClosed = true
			l.events = append(l.events, Event{Kind: EvHangup, Sock: s})
		}
	case hostif.CompClosed:
		if s := l.sock(comp.Flow); s != nil {
			s.Closed = true
			l.socks[comp.Flow] = nil
			l.events = append(l.events, Event{Kind: EvHangup, Sock: s})
		}
	case hostif.CompReset:
		// A reset that carries a port names an active open rejected
		// before any hardware flow ID existed (engine at MaxFlows): it is
		// correlated through dialWait like CompAccepted. That check must
		// come first — such completions leave Flow at its zero value, and
		// flow ID 0 is a legitimate connection.
		if s := l.dialWait[comp.Port]; comp.Port != 0 && s != nil {
			delete(l.dialWait, comp.Port)
			s.WasReset = true
			s.Closed = true
			l.events = append(l.events, Event{Kind: EvHangup, Sock: s})
		} else if s := l.sock(comp.Flow); s != nil {
			s.WasReset = true
			s.Closed = true
			l.socks[comp.Flow] = nil
			l.events = append(l.events, Event{Kind: EvHangup, Sock: s})
		}
	}
}

// Socket is the host-side connection handle: the window-pointer metadata
// the library keeps ("only a handful amount of metadata, such as TCP
// window pointers, are stored and managed in the software", §4.1.1).
type Socket struct {
	lib *Lib
	ID  flow.ID

	localPort uint16
	bound     bool
	passive   bool
	anchored  bool

	writePtr    seqnum.Value // next send byte the app will queue
	ackedTo     seqnum.Value // device-released send boundary
	readPtr     seqnum.Value // next received byte the app will consume
	deliveredTo seqnum.Value // device-announced in-order boundary

	Established bool
	PeerClosed  bool
	Closed      bool
	WasReset    bool
	closeSent   bool
}

// Bound reports whether the socket has its flow ID.
func (s *Socket) Bound() bool { return s.bound }

// LocalPort returns the port this socket is bound to.
func (s *Socket) LocalPort() uint16 { return s.localPort }

func (s *Socket) anchor(sndBase, rcvBase seqnum.Value) {
	if s.anchored {
		return
	}
	s.anchored = true
	s.writePtr = sndBase
	s.ackedTo = sndBase
	s.readPtr = rcvBase
	s.deliveredTo = rcvBase
}

// SendSpace returns free send-buffer bytes.
func (s *Socket) SendSpace() int {
	if !s.anchored {
		return 0
	}
	used := int(s.writePtr.DistanceFrom(s.ackedTo))
	space := int(s.lib.eng.TxRingSize()) - used
	if space < 0 {
		space = 0
	}
	return space
}

// Send queues up to len(data) bytes: copy into the TX hugepage ring,
// advance the REQ pointer, post one 16 B Send command carrying the
// pointer (§4.2.1). Returns bytes accepted (0 when the buffer or the
// command queue is full — the non-blocking EAGAIN path, §4.1.1).
func (s *Socket) Send(data []byte) int {
	return s.send(len(data), data)
}

// SendModelled queues n bytes without payload (modelled-only transfers).
func (s *Socket) SendModelled(n int) int {
	return s.send(n, nil)
}

func (s *Socket) send(n int, data []byte) int {
	if !s.Established || s.Closed || s.closeSent || n <= 0 {
		return 0
	}
	if space := s.SendSpace(); n > space {
		n = space
	}
	if n <= 0 {
		return 0
	}
	if data != nil {
		if ring := s.lib.eng.TxRing(s.ID); ring != nil {
			ring.WriteAt(s.writePtr, data[:n])
		}
	}
	ptr := s.writePtr.Add(seqnum.Size(n))
	if !s.lib.post(hostif.Command{Op: hostif.OpSend, Flow: s.ID, Ptr: ptr}) {
		return 0
	}
	s.writePtr = ptr
	return n
}

// Available returns in-order received bytes not yet consumed.
func (s *Socket) Available() int {
	if !s.anchored {
		return 0
	}
	return int(s.deliveredTo.DistanceFrom(s.readPtr))
}

// Recv consumes up to max bytes: read from the RX hugepage ring, advance
// the consumed pointer, post one Recv command so the hardware can
// re-open the advertised window.
func (s *Socket) Recv(max int) ([]byte, int) {
	n := s.Available()
	if n > max {
		n = max
	}
	if n <= 0 {
		return nil, 0
	}
	var out []byte
	if ring := s.lib.eng.RxRing(s.ID); ring != nil {
		out = ring.ReadAt(s.readPtr, n)
	}
	ptr := s.readPtr.Add(seqnum.Size(n))
	if !s.lib.post(hostif.Command{Op: hostif.OpRecv, Flow: s.ID, Ptr: ptr}) {
		return nil, 0
	}
	s.readPtr = ptr
	return out, n
}

// The split-effect surface below separates each Send/Recv into its
// pure-copy half and its command-posting half. netapi's blocking bridge
// needs the split: ring copies are invisible to the simulation (the
// engine never reads TX bytes beyond the posted REQ pointer, never
// rewrites RX bytes below the delivered pointer), so the facade performs
// them immediately while simulated time is frozen, but defers the
// pointer-advancing command posts into one deterministic per-tick pass.

// Anchored reports whether the byte-stream pointers are fixed (the
// handshake completed and anchored both ISNs).
func (s *Socket) Anchored() bool { return s.anchored }

// WritePtr returns the next send byte the app will queue.
func (s *Socket) WritePtr() seqnum.Value { return s.writePtr }

// AckedTo returns the device-released send boundary.
func (s *Socket) AckedTo() seqnum.Value { return s.ackedTo }

// ReadPtr returns the next received byte the app will consume.
func (s *Socket) ReadPtr() seqnum.Value { return s.readPtr }

// DeliveredTo returns the device-announced in-order boundary.
func (s *Socket) DeliveredTo() seqnum.Value { return s.deliveredTo }

// ReadAt copies delivered bytes starting at ptr into buf without
// consuming them (the consume is PostRecv). The caller must keep
// [ptr, ptr+len(buf)) within [readPtr, deliveredTo).
func (s *Socket) ReadAt(ptr seqnum.Value, buf []byte) {
	if ring := s.lib.eng.RxRing(s.ID); ring != nil {
		ring.ReadInto(ptr, buf)
	}
}

// WriteAt stages payload bytes into the TX ring at ptr without posting a
// send command (that is PostSend). The caller must keep the staged span
// within the free send space above writePtr.
func (s *Socket) WriteAt(ptr seqnum.Value, data []byte) {
	if ring := s.lib.eng.TxRing(s.ID); ring != nil {
		ring.WriteAt(ptr, data)
	}
}

// PostSend advances the REQ pointer to ptr with one Send command
// (payload already staged via WriteAt). Reports false when the command
// queue is full; the caller retries with the same ptr.
func (s *Socket) PostSend(ptr seqnum.Value) bool {
	if !s.Established || s.Closed || s.closeSent || ptr == s.writePtr {
		return true // nothing to do (or no longer possible: don't spin)
	}
	if !s.lib.post(hostif.Command{Op: hostif.OpSend, Flow: s.ID, Ptr: ptr}) {
		return false
	}
	s.writePtr = ptr
	return true
}

// PostRecv advances the consumed pointer to ptr with one Recv command,
// re-opening the advertised window (bytes up to ptr were already copied
// out via ReadAt). Reports false when the command queue is full.
func (s *Socket) PostRecv(ptr seqnum.Value) bool {
	if s.Closed || ptr == s.readPtr {
		return true
	}
	if !s.lib.post(hostif.Command{Op: hostif.OpRecv, Flow: s.ID, Ptr: ptr}) {
		return false
	}
	s.readPtr = ptr
	return true
}

// Close posts an orderly shutdown. It reports whether the close is in
// flight (or already done); false means the command queue was full and
// the caller should retry.
func (s *Socket) Close() bool {
	if s.closeSent || s.Closed {
		return true
	}
	if s.lib.post(hostif.Command{Op: hostif.OpClose, Flow: s.ID}) {
		s.closeSent = true
	}
	return s.closeSent
}

// Abort posts an immediate reset.
func (s *Socket) Abort() {
	s.lib.post(hostif.Command{Op: hostif.OpAbort, Flow: s.ID})
}
