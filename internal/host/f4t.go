package host

import (
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/sim"
	"f4t/internal/softstack"
	"f4t/internal/wire"
)

// F4TMachine is a host whose threads reach the network through the F4T
// library: socket calls are function calls that write 16 B commands
// (§4.6), and the only recurring CPU work is posting commands and
// draining completions.
type F4TMachine struct {
	k     *sim.Kernel
	eng   *engine.Engine
	pool  *cpu.Pool
	costs cpu.Costs

	threads []*f4tThread
	remotes []wire.Addr

	// Threads whose completion queue may be non-empty (DESIGN.md §18):
	// a landed completion DMA adds the thread, a drained queue removes it.
	compReady sim.ReadySet
}

// NewF4TMachine builds a host with one thread per engine channel. The
// engine must have been configured with Channels == cores.
func NewF4TMachine(k *sim.Kernel, eng *engine.Engine, cores int, costs cpu.Costs, remotes []wire.Addr) *F4TMachine {
	m := &F4TMachine{
		k:       k,
		eng:     eng,
		pool:    cpu.NewPool(k, cores),
		costs:   costs,
		remotes: remotes,
	}
	for i := 0; i < cores; i++ {
		th := &f4tThread{
			m:    m,
			idx:  i,
			core: m.pool.Cores[i],
			lib:  softstack.NewLib(k, eng, i),
		}
		m.threads = append(m.threads, th)
		eng.Channels[i].SetCompletionHook(func() { m.compReady.Add(th.idx) })
	}
	return m
}

// Engine exposes the device (tests).
func (m *F4TMachine) Engine() *engine.Engine { return m.eng }

// Pool implements Machine.
func (m *F4TMachine) Pool() *cpu.Pool { return m.pool }

// Threads implements Machine.
func (m *F4TMachine) Threads() []Thread {
	out := make([]Thread, len(m.threads))
	for i, t := range m.threads {
		out[i] = t
	}
	return out
}

// Tick drains each thread's completion queue, charging per-completion
// library cost on its core (polling the software doorbell, §4.6).
func (m *F4TMachine) Tick(cycle int64) {
	for i := m.compReady.Next(0); i >= 0; i = m.compReady.Next(i + 1) {
		th := m.threads[i]
		for th.lib.PendingCompletions() > 0 && th.core.Free() {
			th.core.Run(cpu.CatF4TLib, m.costs.F4TCompletion)
			th.lib.PollOne()
		}
		if th.lib.PendingCompletions() == 0 {
			m.compReady.Remove(i)
		}
	}
}

// NextWork implements sim.Sleeper: the machine only acts when a thread
// has completions to drain, and then only once its core frees up.
// Completions arrive via PCIe DMA kernel timers, which bound any skip.
func (m *F4TMachine) NextWork(now int64) int64 {
	next := sim.Dormant
	for i := m.compReady.Next(0); i >= 0; i = m.compReady.Next(i + 1) {
		th := m.threads[i]
		if th.lib.PendingCompletions() == 0 {
			continue
		}
		w := th.core.NextFree(now)
		if w <= now+1 {
			return now + 1
		}
		if w < next {
			next = w
		}
	}
	return next
}

// f4tThread is one application thread over the F4T library.
type f4tThread struct {
	m     *F4TMachine
	idx   int
	core  *cpu.Core
	lib   *softstack.Lib
	conns []*f4tConn // indexed by the socket's flow ID
	dials []*f4tConn // dialed sockets still waiting for their flow ID

	listening map[uint16]bool

	evScratch []ConnEvent // Poll's reusable translation buffer
}

// Core implements Thread.
func (t *f4tThread) Core() *cpu.Core { return t.core }

// EventsPending reports readiness events awaiting the app's Poll (the
// apps' idleness probe; see apps.threadPending).
func (t *f4tThread) EventsPending() bool { return t.lib.PendingEvents() > 0 }

// Dial implements Thread. It returns nil when the command queue is full
// (retry later).
func (t *f4tThread) Dial(remoteIdx int, port uint16) Conn {
	t.core.RunQueued(cpu.CatF4TLib, t.m.costs.F4TSendCost())
	s := t.lib.Dial(t.m.remotes[remoteIdx], port)
	if s == nil {
		return nil
	}
	c := &f4tConn{th: t, sock: s}
	t.dials = append(t.dials, c)
	return c
}

// conn returns the adapter of s: by flow ID once s is bound, else the
// one Dial made for it, else a new one. A socket's first event carries
// its flow ID except a refused dial's hangup, which never binds.
func (t *f4tThread) conn(s *softstack.Socket) *f4tConn {
	if s.Bound() && int(s.ID) < len(t.conns) {
		if c := t.conns[s.ID]; c != nil && c.sock == s {
			return c
		}
	}
	var c *f4tConn
	for i, d := range t.dials {
		if d.sock == s {
			c = d
			last := len(t.dials) - 1
			t.dials[i], t.dials[last] = t.dials[last], nil
			t.dials = t.dials[:last]
			break
		}
	}
	if c == nil {
		c = &f4tConn{th: t, sock: s}
	}
	if s.Bound() {
		for int(s.ID) >= len(t.conns) {
			t.conns = append(t.conns, nil)
		}
		t.conns[s.ID] = c
	}
	return c
}

// Listen implements Thread.
func (t *f4tThread) Listen(port uint16) {
	t.core.RunQueued(cpu.CatF4TLib, t.m.costs.F4TSendCost())
	t.lib.Listen(port)
}

// Poll implements Thread: map the library's readiness events (already
// paid for when drained) to the app-facing form. The returned slice is
// reused by the next Poll; apps consume events before polling again.
func (t *f4tThread) Poll() []ConnEvent {
	evs := t.lib.TakeEvents()
	if len(evs) == 0 {
		return nil
	}
	out := t.evScratch[:0]
	for _, ev := range evs {
		c := t.conn(ev.Sock)
		var kind ConnEventKind
		switch ev.Kind {
		case softstack.EvConnected:
			kind = EvConnected
		case softstack.EvAccepted:
			kind = EvAccepted
		case softstack.EvReadable:
			kind = EvReadable
		case softstack.EvWritable:
			kind = EvWritable
		case softstack.EvHangup:
			kind = EvHangup
			if ev.Sock.Bound() {
				t.conns[ev.Sock.ID] = nil
			}
		}
		out = append(out, ConnEvent{Kind: kind, Conn: c})
	}
	t.evScratch = out
	return out
}

// f4tConn adapts softstack.Socket with CPU cost gating.
type f4tConn struct {
	th   *f4tThread
	sock *softstack.Socket
}

// TrySend implements Conn: one 16 B command, one amortized doorbell.
func (c *f4tConn) TrySend(n int, payload []byte) int {
	if !c.th.core.Run(cpu.CatF4TLib, c.th.m.costs.F4TSendCost()) {
		return 0
	}
	if payload != nil {
		return c.sock.Send(payload[:n])
	}
	return c.sock.SendModelled(n)
}

// SendQueued implements Conn.
func (c *f4tConn) SendQueued(n int, payload []byte) int {
	c.th.core.RunQueued(cpu.CatF4TLib, c.th.m.costs.F4TSendCost())
	if payload != nil {
		return c.sock.Send(payload[:n])
	}
	return c.sock.SendModelled(n)
}

// RecvQueued implements Conn.
func (c *f4tConn) RecvQueued(max int) int {
	n := c.sock.Available()
	if n > max {
		n = max
	}
	if n <= 0 {
		return 0
	}
	c.th.core.RunQueued(cpu.CatF4TLib, c.th.m.costs.F4TSendCost())
	_, got := c.sock.Recv(n)
	return got
}

// TryRecv implements Conn: advance the consumed pointer with one command.
func (c *f4tConn) TryRecv(max int) int {
	n := c.sock.Available()
	if n > max {
		n = max
	}
	if n <= 0 {
		return 0
	}
	if !c.th.core.Run(cpu.CatF4TLib, c.th.m.costs.F4TSendCost()) {
		return 0
	}
	_, got := c.sock.Recv(n)
	return got
}

// Available implements Conn.
func (c *f4tConn) Available() int { return c.sock.Available() }

// SendSpace implements Conn.
func (c *f4tConn) SendSpace() int { return c.sock.SendSpace() }

// Close implements Conn.
func (c *f4tConn) Close() {
	c.th.core.RunQueued(cpu.CatF4TLib, c.th.m.costs.F4TSendCost())
	c.sock.Close()
}

// Established implements Conn.
func (c *f4tConn) Established() bool { return c.sock.Established }

// PeerClosed implements Conn.
func (c *f4tConn) PeerClosed() bool { return c.sock.PeerClosed }

// Closed implements Conn.
func (c *f4tConn) Closed() bool { return c.sock.Closed }
