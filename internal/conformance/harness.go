package conformance

import (
	"fmt"

	"f4t/internal/flow"
	"f4t/internal/netsim"
	"f4t/internal/pcap"
	"f4t/internal/sim"
	"f4t/internal/tcpproc"
)

// Config parameterizes one harness run. Identical configs produce
// identical runs: every random decision (schedule, ISNs, link fault
// draws) derives from Seed.
type Config struct {
	Rig    RigKind
	Seed   uint64
	Phases int
	Conns  int // concurrent connections (dialed A→B)
	Chunk  int // bytes per application write while pumping

	// Alg names the congestion-control program both endpoints run
	// (empty means newreno). The chaos schedules don't care which
	// program is loaded, so the same seed sweeps every registered
	// algorithm through identical weather — the CC invariants do the
	// per-program checking.
	Alg string

	// Shards > 1 runs the rig on a sharded kernel with the two endpoints
	// on separate shards. Results are bit-identical to the serial run of
	// the same config — the shard matrix test enforces it — so this knob
	// trades nothing but wall-clock shape.
	Shards int

	// PCAPPath, when non-empty, writes the run's link capture there
	// (both directions, drop/mark annotations in packet comments) for
	// replay forensics in Wireshark.
	PCAPPath string
}

// DefaultConfig is the CI smoke shape: long enough to hit every fault
// archetype with a handful of phases, short enough to sweep many seeds.
func DefaultConfig() Config {
	return Config{Rig: RigSoftSoft, Seed: 1, Phases: 6, Conns: 4, Chunk: 4096}
}

// Result is everything one run produced.
type Result struct {
	Violations  []Violation
	Drained     bool  // all connections reached quiescence after the storm
	ForgedRSTs  int64 // resets injected by the chaos layer
	OowRstDrops int64 // resets the endpoints discarded by validation
	EndCycle    int64
	Sched       Schedule
}

// Failed reports whether the run violated any invariant (a liveness
// failure is recorded as a violation too).
func (r Result) Failed() bool { return len(r.Violations) > 0 }

// maxViolations bounds the report; one broken invariant tends to cascade.
const maxViolations = 64

// testConn is the harness's bookkeeping for one connection: both ends'
// views plus per-direction stream progress. Direction 0 is A→B, 1 is
// B→A. Payload bytes are a pure function of (conn index, direction,
// stream offset), so receivers verify without the harness buffering
// anything.
type testConn struct {
	idx     int
	dial    Conn // A side (dialer)
	acc     Conn // B side, nil until accepted
	sent    [2]int
	rcvd    [2]int
	aborted bool

	closedDial, closedAcc bool
}

func (c *testConn) pat(dir, off int) byte {
	return byte(off)*3 + byte(c.idx*31+dir*17+7)
}

// sender/receiver return the Conn on each end of a direction.
func (c *testConn) sender(dir int) Conn {
	if dir == 0 {
		return c.dial
	}
	return c.acc
}
func (c *testConn) receiver(dir int) Conn {
	if dir == 0 {
		return c.acc
	}
	return c.dial
}

type runner struct {
	cfg   Config
	rig   *Rig
	sched Schedule

	conns   []*testConn
	pending map[uint16]*testConn // dialer's local port → awaiting accept
	nextIdx int

	trA, trB *tracker
	viol     []Violation
	closing  bool // drain step 2: close every surviving connection
}

// Run executes one seed-driven chaos run and returns its verdict.
func Run(cfg Config) Result {
	if cfg.Chunk <= 0 {
		cfg.Chunk = 4096
	}
	var fab sim.Fabric
	if cfg.Shards > 1 {
		fab = sim.NewSharded(cfg.Shards)
	} else {
		fab = sim.New()
	}
	alg := cfg.Alg
	if alg == "" {
		alg = "newreno"
	}
	h := &runner{
		cfg:     cfg,
		rig:     NewRigAlgOn(fab, cfg.Rig, cfg.Seed, alg),
		sched:   NewSchedule(cfg.Seed, cfg.Phases),
		pending: make(map[uint16]*testConn),
	}
	var capture *pcap.Capture
	if cfg.PCAPPath != "" {
		capture = pcap.New()
		capture.TapPipe(h.rig.Link.AtoB, "chaos.ab")
		capture.TapPipe(h.rig.Link.BtoA, "chaos.ba")
	}
	sink := func(v Violation) {
		if len(h.viol) < maxViolations {
			h.viol = append(h.viol, v)
		}
	}
	mss := tcpproc.DefaultConfig().MSS
	h.trA = newTracker("A", alg, mss, sink)
	h.trB = newTracker("B", alg, mss, sink)

	h.rig.B.Listen()
	for i := 0; i < cfg.Conns; i++ {
		h.dialOne()
	}
	for _, ph := range h.sched.Phases {
		h.runPhase(ph)
	}
	drained := h.drain()
	h.finalChecks(drained)
	if capture != nil {
		if err := capture.WriteFile(cfg.PCAPPath); err != nil {
			sink(Violation{Invariant: "pcap-write", Endpoint: "harness",
				Cycle: h.rig.R.Now(), Detail: err.Error()})
		}
	}

	return Result{
		Violations:  h.viol,
		Drained:     drained,
		ForgedRSTs:  h.rig.ForgedRSTs(),
		OowRstDrops: h.rig.A.OowRstDrops() + h.rig.B.OowRstDrops(),
		EndCycle:    h.rig.R.Now(),
		Sched:       h.sched,
	}
}

// dialOne opens a fresh connection from A and registers it for accept
// matching by the dialer's ephemeral port.
func (h *runner) dialOne() {
	c := h.rig.A.Dial()
	if c == nil {
		return // command queue full; churn retries next phase
	}
	tc := &testConn{idx: h.nextIdx, dial: c}
	h.nextIdx++
	h.conns = append(h.conns, tc)
	h.pending[c.LocalPort()] = tc
}

// pump advances the application layer one step: drain completions,
// match newly accepted connections, move stream bytes subject to the
// phase's stall/trickle shaping.
func (h *runner) pump(ph *Phase) {
	h.rig.A.Poll() // dialer-side completions (engine libs)
	for _, nc := range h.rig.B.Poll() {
		if tc := h.pending[nc.PeerPort()]; tc != nil && tc.acc == nil {
			tc.acc = nc
			delete(h.pending, nc.PeerPort())
		}
	}
	for _, tc := range h.conns {
		if tc.aborted {
			continue
		}
		if h.closing {
			// Also catches stragglers whose handshake (and accept) only
			// completed during the drain, after the initial close sweep.
			h.closeBoth(tc)
		}
		for dir := 0; dir < 2; dir++ {
			h.pumpSend(tc, dir, ph)
			if ph == nil || !ph.Stall {
				h.pumpRecv(tc, dir)
			}
		}
	}
}

var chunkScratch [8192]byte

func (h *runner) pumpSend(tc *testConn, dir int, ph *Phase) {
	if ph == nil {
		return // draining: no new bytes
	}
	snd := tc.sender(dir)
	if snd == nil || !snd.Established() || snd.Done() {
		return
	}
	n := h.cfg.Chunk
	if ph.Trickle {
		n = 1
	}
	if n > len(chunkScratch) {
		n = len(chunkScratch)
	}
	for i := 0; i < n; i++ {
		chunkScratch[i] = tc.pat(dir, tc.sent[dir]+i)
	}
	tc.sent[dir] += snd.Send(chunkScratch[:n])
}

func (h *runner) pumpRecv(tc *testConn, dir int) {
	rcv := tc.receiver(dir)
	// Touching the stream API before ESTABLISHED would anchor the app
	// pointers before the handshake has fixed the peer's ISN.
	if rcv == nil || !rcv.Established() {
		return
	}
	for rcv.Available() > 0 {
		buf, n := rcv.Recv(8192)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			want := tc.pat(dir, tc.rcvd[dir]+i)
			if buf != nil && buf[i] != want {
				h.violate("byte-stream-corruption", tc,
					fmt.Sprintf("dir=%d offset=%d got=%#x want=%#x",
						dir, tc.rcvd[dir]+i, buf[i], want))
				tc.rcvd[dir] += n
				return
			}
		}
		tc.rcvd[dir] += n
	}
}

func (h *runner) violate(invariant string, tc *testConn, detail string) {
	if len(h.viol) >= maxViolations {
		return
	}
	h.viol = append(h.viol, Violation{
		Invariant: invariant, Endpoint: "harness",
		Flow: 0, Cycle: h.rig.R.Now(),
		Detail: fmt.Sprintf("conn %d: %s", tc.idx, detail),
	})
}

// runPhase applies one phase's fault profile and advances the clock,
// pumping the app and sampling invariants as it goes.
func (h *runner) runPhase(ph Phase) {
	h.rig.SetFaults(ph.Faults)
	h.rig.SetRSTEvery(ph.RstEvery)
	for i := 0; i < ph.Churn; i++ {
		h.churnOne()
	}
	h.advance(ph.Cycles, &ph, nil)
}

// churnOne aborts the longest-lived healthy connection and dials a
// replacement — deliberate state churn under whatever weather the phase
// brings.
func (h *runner) churnOne() {
	for _, tc := range h.conns {
		if tc.aborted || !tc.dial.Established() || tc.dial.Done() {
			continue
		}
		tc.aborted = true
		tc.dial.Abort()
		h.dialOne()
		return
	}
}

// advance steps the simulation `cycles` forward in small slices,
// pumping the application every slice and sampling TCB invariants every
// few slices. A nil phase means draining (no new sends). When pred is
// non-nil, advance returns early once it holds.
func (h *runner) advance(cycles int64, ph *Phase, pred func() bool) bool {
	const slice = 512
	const sampleEvery = 4
	for i := int64(0); i < cycles; i += slice {
		h.pump(ph)
		if i/slice%sampleEvery == 0 {
			now := h.rig.R.Now()
			h.trA.beginPass()
			h.trB.beginPass()
			h.rig.A.VisitTCBs(func(t *flow.TCB) { h.trA.observe(t, now) })
			h.rig.B.VisitTCBs(func(t *flow.TCB) { h.trB.observe(t, now) })
		}
		if pred != nil && pred() {
			return true
		}
		h.rig.R.Run(slice)
	}
	h.pump(ph)
	return pred != nil && pred()
}

// drainBudget bounds the post-storm settling time. Generous: worst case
// is a full RTO backoff chain after a heavy-loss phase (InitialRTO is
// 2.5 M cycles at 4 ns/cycle).
const drainBudget = 120_000_000

// drain clears all faults and requires the network to reach quiescence:
// every surviving connection delivers everything that was sent (in both
// directions, verified byte by byte), then closes cleanly; aborted
// connections' peers must learn of the reset. Returns false on timeout —
// a liveness failure.
func (h *runner) drain() bool {
	h.rig.SetFaults(netsim.Faults{})
	h.rig.SetRSTEvery(0)

	// 1: every in-flight byte arrives.
	settled := h.advance(drainBudget/2, nil, func() bool {
		for _, tc := range h.conns {
			if !h.bytesSettled(tc) {
				return false
			}
		}
		return true
	})
	if !settled {
		return false
	}

	// 2: orderly close drains to CLOSED on both sides.
	h.closing = true
	for _, tc := range h.conns {
		if !tc.aborted {
			h.closeBoth(tc)
		}
	}
	return h.advance(drainBudget/2, nil, func() bool {
		for _, tc := range h.conns {
			if !h.closeSettled(tc) {
				return false
			}
		}
		return true
	})
}

// closeBoth issues Close on each side of a connection at most once.
func (h *runner) closeBoth(tc *testConn) {
	if !tc.closedDial {
		tc.closedDial = true
		tc.dial.Close()
	}
	if tc.acc != nil && !tc.closedAcc {
		tc.closedAcc = true
		tc.acc.Close()
	}
}

// bytesSettled reports whether a connection has no data left in flight.
func (h *runner) bytesSettled(tc *testConn) bool {
	if tc.aborted {
		return true
	}
	if tc.dial.Reset() {
		return true // spurious reset; flagged in finalChecks
	}
	if tc.acc == nil {
		// Never accepted: only tolerable if it never got established
		// (e.g. dialed just before the storm ended and still in
		// handshake — it must finish during the close step instead).
		return !tc.dial.Established()
	}
	return tc.rcvd[0] == tc.sent[0] && tc.rcvd[1] == tc.sent[1]
}

// closeSettled reports whether a connection has fully terminated.
func (h *runner) closeSettled(tc *testConn) bool {
	if tc.aborted {
		// The aborting side freed instantly; the peer must have learned
		// via the RST (or an orphan-RST reply to its retransmissions).
		return tc.acc == nil || tc.acc.Done()
	}
	if !tc.dial.Done() {
		return false
	}
	return tc.acc == nil || tc.acc.Done()
}

// finalChecks turns end-state anomalies into violations: a failed drain
// is a liveness bug; a reset nobody asked for means a forged or stale
// RST got through validation; a flow-slot violation means a flow ID was
// freed or reused with a layer still holding it.
func (h *runner) finalChecks(drained bool) {
	if !drained {
		for _, tc := range h.conns {
			if !h.bytesSettled(tc) || !h.closeSettled(tc) {
				h.violate("liveness-drain-timeout", tc, fmt.Sprintf(
					"sent=%v rcvd=%v aborted=%v accepted=%v",
					tc.sent, tc.rcvd, tc.aborted, tc.acc != nil))
			}
		}
		if len(h.viol) == 0 {
			h.viol = append(h.viol, Violation{
				Invariant: "liveness-drain-timeout", Endpoint: "harness",
				Cycle: h.rig.R.Now(), Detail: "network failed to quiesce",
			})
		}
	}
	for _, tc := range h.conns {
		if tc.aborted {
			continue
		}
		if tc.dial.Reset() {
			h.violate("unexpected-reset", tc, "dialer side reset without an abort")
		}
		if tc.acc != nil && tc.acc.Reset() {
			h.violate("unexpected-reset", tc, "acceptor side reset without an abort")
		}
	}
	for _, ep := range []Endpoint{h.rig.A, h.rig.B} {
		if n := ep.FlowSlotViolations(); n > 0 {
			h.viol = append(h.viol, Violation{
				Invariant: "flow-slot-lifecycle", Endpoint: ep.Name(),
				Cycle: h.rig.R.Now(), Detail: fmt.Sprintf("%d flow IDs freed or reused while a layer held them", n),
			})
		}
	}
}
