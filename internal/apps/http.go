package apps

import (
	"f4t/internal/cpu"
	"f4t/internal/host"
	"f4t/internal/sim"
	"f4t/internal/telemetry"
)

// HTTPServer is the Nginx stand-in of §5.2: per request it parses the
// HTTP header (app work), fetches the HTML from the filesystem
// (vfs_read — kernel bucket, the residual kernel time of Fig 11),
// renders the response header (app work) and sends a fixed-size
// response (256 B in the paper: header + HTML payload).
type HTTPServer struct {
	threads  []host.Thread
	reqSize  int
	respSize int
	costs    cpu.Costs

	conns   map[host.Conn]*httpConn
	pending []*sim.Queue[host.Conn] // per-thread round-robin service queues

	// Requests counts responses sent (Fig 10's metric, server side).
	Requests sim.Counter
}

// httpConn is the server's state for one connection, kept until it
// hangs up.
type httpConn struct {
	ready  int  // buffered request bytes
	queued bool // in its thread's service queue
}

// NewHTTPServer listens on port with every thread.
func NewHTTPServer(threads []host.Thread, port uint16, reqSize, respSize int, costs cpu.Costs) *HTTPServer {
	s := &HTTPServer{
		threads:  threads,
		reqSize:  reqSize,
		respSize: respSize,
		costs:    costs,
		conns:    make(map[host.Conn]*httpConn),
	}
	for _, th := range threads {
		th.Listen(port)
		s.pending = append(s.pending, sim.NewQueue[host.Conn](0))
	}
	return s
}

func (s *HTTPServer) enqueue(i int, c host.Conn, st *httpConn) {
	if st.queued {
		return
	}
	st.queued = true
	s.pending[i].Push(c)
}

// Tick implements sim.Ticker: each thread serves as many buffered
// requests as its core allows this cycle.
func (s *HTTPServer) Tick(int64) {
	for i, th := range s.threads {
		pend := s.pending[i]
		for _, ev := range th.Poll() {
			switch ev.Kind {
			case host.EvReadable:
				st := s.conns[ev.Conn]
				if st == nil {
					st = &httpConn{}
					s.conns[ev.Conn] = st
				}
				s.enqueue(i, ev.Conn, st)
			case host.EvHangup:
				delete(s.conns, ev.Conn)
			}
		}
		// Round-robin service: one request per connection per turn, so
		// no connection starves behind a busy one (epoll fairness).
		core := th.Core()
		for core.Free() {
			c, ok := pend.Pop()
			if !ok {
				break
			}
			st := s.conns[c]
			if st == nil || !st.queued {
				continue // hung up while queued
			}
			st.queued = false
			served := s.serveOne(th, c, st)
			if c.Available()+st.ready >= s.reqSize || (!served && st.ready > 0) {
				s.enqueue(i, c, st)
			}
		}
	}
}

// NextWork implements sim.Sleeper: queued connections wait for the
// thread's core; everything else arrives as readiness events.
func (s *HTTPServer) NextWork(now int64) int64 {
	next := sim.Dormant
	for i, th := range s.threads {
		if threadPending(th) {
			return now + 1
		}
		if s.pending[i].Len() > 0 {
			var stop bool
			if next, stop = coreWake(next, th.Core(), now); stop {
				return now + 1
			}
		}
	}
	return next
}

// serveOne handles one complete request if present: socket read, HTTP
// parse, file fetch, response render, socket write — each charged to its
// CPU category.
func (s *HTTPServer) serveOne(th host.Thread, c host.Conn, st *httpConn) bool {
	core := th.Core()
	if st.ready < s.reqSize {
		got := c.RecvQueued(c.Available())
		if got == 0 {
			return false
		}
		st.ready += got
	}
	if st.ready < s.reqSize {
		return false
	}
	st.ready -= s.reqSize
	core.RunQueued(cpu.CatApp, s.costs.AppParseRequest)
	core.RunQueued(cpu.CatKernel, s.costs.VfsRead)
	core.RunQueued(cpu.CatApp, s.costs.AppBuildResponse)
	if c.SendQueued(s.respSize, nil) == 0 {
		// Response buffer full: requeue the request for a later turn.
		st.ready += s.reqSize
		return false
	}
	s.Requests.Inc()
	return true
}

// Wrk is the HTTP load generator of §5.2: keepalive connections that
// each send a fixed-size request, wait for the full response, record
// the latency, and immediately issue the next request.
type Wrk struct {
	k        *sim.Kernel
	threads  []host.Thread
	d        *dialer
	flows    [][]*wrkFlow
	reqSize  int
	respSize int
	costs    cpu.Costs

	// ready[t] holds thread t's flows that may have work (DESIGN.md
	// §18). Dialing, EvConnected and EvReadable add a flow, found through
	// index; a visit that finds it not established, or awaiting with
	// nothing to read, removes it.
	ready []sim.ReadySet
	index map[host.Conn]int // a flow's position in its thread's list

	// Responses counts completed request/response pairs.
	Responses sim.Counter
	// Latency records request→response times (Fig 12).
	Latency sim.Histogram

	// Telemetry (nil when disabled; see telemetry.go).
	latHist *telemetry.Histogram
}

type wrkFlow struct {
	conn     host.Conn
	awaiting bool
	sentAt   int64
	got      int
}

// NewWrk opens flowsPerThread keepalive connections per thread (paced).
func NewWrk(k *sim.Kernel, threads []host.Thread, remoteIdx int, port uint16, reqSize, respSize, flowsPerThread int, costs cpu.Costs) *Wrk {
	w := &Wrk{
		k: k, threads: threads, reqSize: reqSize, respSize: respSize, costs: costs,
		flows: make([][]*wrkFlow, len(threads)),
		index: make(map[host.Conn]int),
		ready: make([]sim.ReadySet, len(threads)),
	}
	w.d = newDialer(threads, remoteIdx, port, flowsPerThread, func(i int, conn host.Conn) {
		w.index[conn] = len(w.flows[i])
		w.ready[i].Add(len(w.flows[i]))
		w.flows[i] = append(w.flows[i], &wrkFlow{conn: conn})
	})
	return w
}

// idle reports whether f has nothing to do until an event arrives: it is
// not yet established, or it awaits a response with no bytes to read.
func (f *wrkFlow) idle() bool {
	return !f.conn.Established() || (f.awaiting && f.conn.Available() == 0)
}

// Ready reports whether every connection established.
func (w *Wrk) Ready() bool { return w.d.allEstablished() }

// Tick implements sim.Ticker.
func (w *Wrk) Tick(int64) {
	w.d.tick()
	now := w.k.NowNS()
	for i, th := range w.threads {
		ready := &w.ready[i]
		for _, ev := range th.Poll() {
			if ev.Kind == host.EvConnected || ev.Kind == host.EvReadable {
				if j, ok := w.index[ev.Conn]; ok {
					ready.Add(j)
				}
			}
		}
		core := th.Core()
		for j := ready.Next(0); j >= 0; j = ready.Next(j + 1) {
			f := w.flows[i][j]
			if f.idle() {
				ready.Remove(j)
				continue
			}
			if f.awaiting {
				if core.Free() {
					f.got += f.conn.TryRecv(w.respSize - f.got)
					if f.got >= w.respSize {
						f.awaiting = false
						f.got = 0
						w.Responses.Inc()
						w.Latency.Observe(now - f.sentAt)
						w.latHist.Observe(now - f.sentAt)
					}
				}
				continue
			}
			if !core.Free() {
				break
			}
			core.Run(cpu.CatApp, w.costs.GenRequest)
			if f.conn.SendQueued(w.reqSize, nil) > 0 {
				f.awaiting = true
				f.sentAt = now
			}
		}
	}
}

// NextWork implements sim.Sleeper. A flow awaiting its response with no
// bytes available needs nothing until the network delivers (which wakes
// the machine, then surfaces here as a pending event); any other
// established flow is core-gated work.
func (w *Wrk) NextWork(now int64) int64 {
	if !w.d.complete() {
		return now + 1
	}
	next := sim.Dormant
	for i, th := range w.threads {
		if threadPending(th) {
			return now + 1
		}
		ready := &w.ready[i]
		for j := ready.Next(0); j >= 0; j = ready.Next(j + 1) {
			if w.flows[i][j].idle() {
				ready.Remove(j)
				continue
			}
			var stop bool
			if next, stop = coreWake(next, th.Core(), now); stop {
				return now + 1
			}
			break // the shared core is the gate; one flow suffices
		}
	}
	return next
}
