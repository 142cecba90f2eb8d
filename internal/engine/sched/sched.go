// Package sched models the F4T scheduler (§4.3.2, §4.4): the partitioned
// location LUT that tracks where every flow's TCB lives, the four
// 16-entry coalesce FIFOs that merge events of the same flow before
// routing (§4.4.1), the pending queue with 12-cycle retry for events
// whose flow is mid-migration, and the migration engine that moves TCBs
// between FPCs and DRAM (including FPC→FPC load-balancing moves).
package sched

import (
	"unsafe"

	"f4t/internal/engine/fpc"
	"f4t/internal/engine/memmgr"
	"f4t/internal/flow"
	"f4t/internal/sim"
	"f4t/internal/tcpproc"
)

// Location states in the LUT.
type locKind uint8

const (
	locFree locKind = iota
	locFPC
	locDRAM
	locMoving
)

type locEntry struct {
	kind locKind
	fpc  int8
}

// migTarget records where an in-flight migration is headed.
type migTarget struct {
	toDRAM   bool
	fpc      int
	reserved bool // a slot reservation is held at fpc
}

// flowState is the scheduler's per-flow slot, indexed by flow ID: the
// location LUT entry plus the routing bookkeeping that rides with it.
// The pending count and the swap-in flag drain with the queue entries
// that carry the ID, so they may outlive the flow (see Holds).
type flowState struct {
	loc        locEntry
	pending    int32 // events in the pending queue (order guard)
	mig        migTarget
	migrating  bool // mig holds an in-flight migration's target
	swapQueued bool // dedupe: at most one queued swap-in request per flow
}

// pendingEv is an event waiting out a migration (§4.3.2).
type pendingEv struct {
	ev      flow.Event
	retryAt int64
}

// retryCycles is the pending-queue retry interval (§4.3.2: "retries the
// routing after 12 cycles").
const retryCycles = 12

// Config parameterizes the scheduler.
type Config struct {
	CoalesceFIFOs int  // reference design: 4
	FIFODepth     int  // reference design: 16
	Coalesce      bool // event coalescing enable (§4.4.1; off for the 1FPC ablation)
	LUTGroups     int  // location LUT partitions = routes per cycle (§4.4.2)
}

// DefaultConfig returns the reference-design scheduler.
func DefaultConfig(numFPCs int) Config {
	groups := (numFPCs + 1) / 2 // one route per two-cycle FPC slot (§4.4.2)
	if groups < 1 {
		groups = 1
	}
	return Config{
		CoalesceFIFOs: 4,
		FIFODepth:     16,
		Coalesce:      true,
		LUTGroups:     groups,
	}
}

// Scheduler orchestrates all flows (§4.1.2 ④).
type Scheduler struct {
	k    *sim.Kernel
	cfg  Config
	fpcs []*fpc.FPC
	mem  *memmgr.Manager

	flows     []flowState // indexed by flow ID; grows with AllocateFlow
	fifos     []*sim.Queue[flow.Event]
	pending   *sim.Queue[pendingEv]
	swapReqs  *sim.Queue[flow.ID]
	evictBusy []bool // one outstanding eviction per FPC

	// Stats.
	Routed        sim.Counter
	Coalesced     sim.Counter
	Backpressure  sim.Counter
	Migrations    sim.Counter
	SwapIns       sim.Counter
	DroppedEvents sim.Counter
}

// New builds a scheduler over the given FPCs and memory manager.
func New(k *sim.Kernel, cfg Config, fpcs []*fpc.FPC, mem *memmgr.Manager) *Scheduler {
	if cfg.CoalesceFIFOs <= 0 {
		cfg.CoalesceFIFOs = 4
	}
	if cfg.FIFODepth <= 0 {
		cfg.FIFODepth = 16
	}
	if cfg.LUTGroups <= 0 {
		cfg.LUTGroups = 1
	}
	s := &Scheduler{
		k:         k,
		cfg:       cfg,
		fpcs:      fpcs,
		mem:       mem,
		fifos:     make([]*sim.Queue[flow.Event], cfg.CoalesceFIFOs),
		pending:   sim.NewQueue[pendingEv](0),
		swapReqs:  sim.NewQueue[flow.ID](0),
		evictBusy: make([]bool, len(fpcs)),
	}
	for i := range s.fifos {
		s.fifos[i] = sim.NewQueue[flow.Event](cfg.FIFODepth)
	}
	return s
}

// Location reports where a flow currently lives (testing/diagnostics).
func (s *Scheduler) Location(id flow.ID) (inFPC bool, fpcIdx int, inDRAM, moving bool) {
	if int(id) >= len(s.flows) {
		return false, 0, false, false
	}
	e := s.flows[id].loc
	switch e.kind {
	case locFPC:
		return true, int(e.fpc), false, false
	case locDRAM:
		return false, 0, true, false
	case locMoving:
		return false, 0, false, true
	}
	return false, 0, false, false
}

// AllocateFlow places a new flow: the FPC with the lowest flow count
// (§4.4.2), or DRAM when every FPC is full.
func (s *Scheduler) AllocateFlow(t *flow.TCB) {
	for int(t.FlowID) >= len(s.flows) {
		s.flows = append(s.flows, flowState{})
	}
	best := -1
	bestCount := 1 << 30
	for i, f := range s.fpcs {
		if f.HasSlot() && f.FlowCount() < bestCount {
			best, bestCount = i, f.FlowCount()
		}
	}
	if best >= 0 && s.fpcs[best].InstallNew(t) {
		s.flows[t.FlowID].loc = locEntry{kind: locFPC, fpc: int8(best)}
		return
	}
	s.mem.Insert(t)
	s.flows[t.FlowID].loc = locEntry{kind: locDRAM}
}

// FlowFreed clears the location and any migration of a terminated flow
// (and its DRAM copy).
func (s *Scheduler) FlowFreed(id flow.ID) {
	fs := &s.flows[id]
	if fs.loc.kind == locDRAM {
		s.mem.Drop(id)
	}
	if fs.migrating && fs.mig.reserved && !fs.mig.toDRAM {
		s.fpcs[fs.mig.fpc].ReleaseReservation()
	}
	fs.loc = locEntry{}
	fs.migrating = false
}

// Holds reports whether the scheduler still keeps per-flow state for id:
// a location, queued pending events, a migration or a swap-in request.
// A flow ID must be free of all four before it is reused.
func (s *Scheduler) Holds(id flow.ID) bool {
	if int(id) >= len(s.flows) {
		return false
	}
	fs := &s.flows[id]
	return fs.loc.kind != locFree || fs.pending != 0 || fs.migrating || fs.swapQueued
}

// SlotBytes returns the allocated bytes of the per-flow slots.
func (s *Scheduler) SlotBytes() int64 {
	return int64(cap(s.flows)) * int64(unsafe.Sizeof(flowState{}))
}

// Submit pushes one event into the coalesce stage. It reports false when
// the flow's FIFO is full (backpressure to the host interface / RX
// parser / timer module, which hold their own queues).
func (s *Scheduler) Submit(ev flow.Event) bool {
	idx := int(uint64(ev.Flow) % uint64(len(s.fifos)))
	q := s.fifos[idx]
	if s.cfg.Coalesce && ev.Coalescable {
		// Index-based scan: a Scan closure capturing ev would force the
		// event to escape on every submit, and this is the engine's
		// per-segment hot path.
		for i, n := 0, q.Len(); i < n; i++ {
			e := q.AtPtr(i)
			if e.Flow == ev.Flow && e.Coalescable && e.Kind == ev.Kind {
				coalesceInto(e, &ev)
				s.Coalesced.Inc()
				return true
			}
		}
	}
	return q.Push(ev)
}

// coalesceInto merges src into dst using the same lossless rules as the
// event handler (§4.4.1): cumulative pointers take the newest value.
func coalesceInto(dst, src *flow.Event) {
	switch src.Kind {
	case flow.EvUser:
		if src.HasReq {
			dst.HasReq, dst.Req = true, src.Req
		}
		if src.HasRead {
			dst.HasRead, dst.AppRead = true, src.AppRead
		}
		dst.Ctl |= src.Ctl
	case flow.EvRx:
		if src.HasAck {
			dst.HasAck, dst.Ack = true, src.Ack
		}
		if src.HasWnd {
			dst.HasWnd, dst.Wnd = true, src.Wnd
		}
		if src.HasData {
			dst.HasData, dst.RcvData = true, src.RcvData
		}
	case flow.EvTimeout:
		dst.Timeouts |= src.Timeouts
	}
}

// SubmitSpace reports whether the flow's FIFO can take another event.
func (s *Scheduler) SubmitSpace(id flow.ID) bool {
	return !s.fifos[int(uint64(id)%uint64(len(s.fifos)))].Full()
}

// RequestSwapIn is the memory manager's check-logic signal (§4.3.1).
// Requests dedupe per flow: the check logic fires per handled event, but
// one pending swap-in per flow suffices.
func (s *Scheduler) RequestSwapIn(id flow.ID) {
	if s.flows[id].swapQueued {
		return
	}
	s.flows[id].swapQueued = true
	s.swapReqs.Push(id)
}

// NextWork implements sim.Sleeper for the engine's aggregate idleness
// report: routing and swap-in servicing act immediately on non-empty
// queues; the pending queue acts at its head's retry deadline (entries
// are pushed with monotonically nondecreasing retryAt, so the head is
// the minimum). Migrations in flight land via kernel timers into FPC
// incoming queues, which report their own work.
func (s *Scheduler) NextWork(now int64) int64 {
	for _, q := range s.fifos {
		if q.Len() > 0 {
			return now + 1
		}
	}
	if s.swapReqs.Len() > 0 {
		return now + 1
	}
	if pe, ok := s.pending.Peek(); ok {
		if pe.retryAt <= now {
			return now + 1
		}
		return pe.retryAt
	}
	return sim.Dormant
}

// Tick advances routing, pending retries and migrations.
func (s *Scheduler) Tick(cycle int64) {
	// Event-driven dispatch: with every input queue empty each stage is a
	// no-op (route pops nothing, retryPending and processSwapIns see empty
	// queues), so skip the three stage calls. Mirrors NextWork's idleness
	// conditions exactly, so behavior is unchanged — only dispatch cost.
	if s.pending.Len() == 0 && s.swapReqs.Len() == 0 {
		busy := false
		for _, q := range s.fifos {
			if q.Len() > 0 {
				busy = true
				break
			}
		}
		if !busy {
			return
		}
	}
	s.route(cycle)
	s.retryPending(cycle)
	s.processSwapIns(cycle)
}

// route pops up to one event per coalesce FIFO per cycle — the
// partitioned-LUT routing bandwidth of §4.4.2 — and forwards each to its
// flow's current location.
func (s *Scheduler) route(cycle int64) {
	routes := 0
	for _, q := range s.fifos {
		if routes >= s.cfg.LUTGroups {
			break
		}
		ev, ok := q.Peek()
		if !ok {
			continue
		}
		fs := &flowState{} // IDs the engine never allocated route like freed flows
		if int(ev.Flow) < len(s.flows) {
			fs = &s.flows[ev.Flow]
		}
		// Order guard: a flow with events already waiting in the pending
		// queue must not have later events overtake them.
		if fs.pending > 0 {
			q.Pop()
			s.toPending(ev, cycle)
			routes++
			continue
		}
		switch fs.loc.kind {
		case locFPC:
			f := s.fpcs[fs.loc.fpc]
			if f.EnqueueEvent(ev) {
				q.Pop()
				s.Routed.Inc()
				routes++
			} else {
				// Congested FPC: head-of-line wait, plus a load-balancing
				// migration of this flow to the idlest FPC (§4.4.2).
				s.Backpressure.Inc()
				s.maybeRebalance(ev.Flow, int(fs.loc.fpc))
			}
		case locDRAM:
			if s.mem.EnqueueEvent(ev) {
				q.Pop()
				s.Routed.Inc()
				routes++
			}
		case locMoving:
			q.Pop()
			s.toPending(ev, cycle)
			routes++
		default: // freed flow: event has nowhere to go
			q.Pop()
			s.DroppedEvents.Inc()
			routes++
		}
	}
}

func (s *Scheduler) toPending(ev flow.Event, cycle int64) {
	s.pending.Push(pendingEv{ev: ev, retryAt: cycle + retryCycles})
	s.flows[ev.Flow].pending++
}

// retryPending re-routes events whose retry interval elapsed (§4.3.2).
func (s *Scheduler) retryPending(cycle int64) {
	for i := 0; i < 4; i++ { // a few retries per cycle
		pe, ok := s.pending.Peek()
		if !ok || pe.retryAt > cycle {
			return
		}
		ev := pe.ev
		fs := &s.flows[ev.Flow]
		switch fs.loc.kind {
		case locFPC:
			if !s.fpcs[fs.loc.fpc].EnqueueEvent(ev) {
				return // destination congested: hold position, retry later
			}
		case locDRAM:
			if !s.mem.EnqueueEvent(ev) {
				return
			}
		case locMoving:
			// Still migrating: recycle to the tail with a fresh deadline.
			s.pending.Pop()
			s.pending.Push(pendingEv{ev: ev, retryAt: cycle + retryCycles})
			return
		default:
			s.pending.Pop()
			fs.pending--
			s.DroppedEvents.Inc()
			continue
		}
		s.pending.Pop()
		fs.pending--
		s.Routed.Inc()
	}
}

// maybeRebalance migrates a flow away from a congested FPC to the idlest
// one (§4.4.2). At most one eviction per FPC is in flight.
func (s *Scheduler) maybeRebalance(id flow.ID, from int) {
	if s.evictBusy[from] {
		return
	}
	best, bestCount := -1, 1<<30
	for i, f := range s.fpcs {
		if i != from && f.HasSlot() && f.FlowCount() < bestCount {
			best, bestCount = i, f.FlowCount()
		}
	}
	if best < 0 {
		return
	}
	if !s.fpcs[best].ReserveSlot() {
		return
	}
	s.startMigration(id, from, migTarget{fpc: best, reserved: true})
}

// processSwapIns services check-logic requests: extract the TCB from
// DRAM and push it into the chosen FPC, evicting a cold flow first when
// every FPC is full (§4.3.2). Blocked-but-valid requests recycle to the
// tail so stale entries behind them still drain.
func (s *Scheduler) processSwapIns(cycle int64) {
	for i := 0; i < 4; i++ {
		id, ok := s.swapReqs.Pop()
		if !ok {
			return
		}
		fs := &s.flows[id]
		fs.swapQueued = false
		if fs.loc.kind != locDRAM || !s.mem.Has(id) {
			continue // already moved or freed
		}
		best, bestCount := -1, 1<<30
		for j, f := range s.fpcs {
			if f.HasSlot() && f.FlowCount() < bestCount {
				best, bestCount = j, f.FlowCount()
			}
		}
		if best < 0 || !s.fpcs[best].ReserveSlot() {
			// Every FPC full: make room by evicting a cold flow, recycle
			// the request to the tail, and retry later.
			fs.swapQueued = true
			s.swapReqs.Push(id)
			s.makeRoom()
			return
		}
		s.SwapIns.Inc()
		fs.loc = locEntry{kind: locMoving}
		tcb, readyAt, found := s.mem.Extract(id)
		if !found {
			s.fpcs[best].ReleaseReservation()
			fs.loc = locEntry{}
			continue
		}
		target := best
		fs.mig, fs.migrating = migTarget{fpc: target, reserved: true}, true
		s.k.At(readyAt, func() {
			// The reservation guarantees capacity.
			s.fpcs[target].AcceptTCB(tcb)
		})
	}
}

// makeRoom evicts the coldest flow from the FPC with no eviction in
// flight (picking the fullest such FPC).
func (s *Scheduler) makeRoom() {
	best, bestCount := -1, -1
	for i, f := range s.fpcs {
		if !s.evictBusy[i] && f.FlowCount() > bestCount {
			best, bestCount = i, f.FlowCount()
		}
	}
	if best < 0 {
		return
	}
	victim := s.fpcs[best].ColdestFlow()
	if victim == flow.NoFlow {
		return
	}
	s.startMigration(victim, best, migTarget{toDRAM: true})
}

// startMigration sets the moving state and the evict flag (§4.3.2: both
// at the same time, which blocks routing of new input events).
func (s *Scheduler) startMigration(id flow.ID, from int, tgt migTarget) {
	fs := &s.flows[id]
	if fs.loc.kind != locFPC {
		return
	}
	if !s.fpcs[from].RequestEvict(id) {
		return
	}
	s.Migrations.Inc()
	s.evictBusy[from] = true
	fs.mig, fs.migrating = tgt, true
	fs.loc = locEntry{kind: locMoving}
}

// Evicted receives a TCB captured by an FPC's evict checker and forwards
// it to its migration target.
func (s *Scheduler) Evicted(from int, t *flow.TCB) {
	s.evictBusy[from] = false
	fs := &s.flows[t.FlowID]
	if !fs.migrating || fs.mig.toDRAM {
		fs.migrating = false
		s.mem.Insert(t)
		fs.loc = locEntry{kind: locDRAM}
		// Events that were handled during the eviction window travel with
		// the TCB; the check logic decides whether they warrant a swap
		// back in (§4.3.1) — a bare window update does not.
		if tcpproc.Actionable(t) {
			s.RequestSwapIn(t.FlowID)
		}
		return
	}
	// FPC→FPC rebalancing move; the reservation guarantees capacity.
	if s.fpcs[fs.mig.fpc].AcceptTCB(t) {
		return // Installed() will finalize
	}
	fs.migrating = false
	s.mem.Insert(t)
	fs.loc = locEntry{kind: locDRAM}
}

// EvictAborted releases an eviction slot whose flow terminated during
// its final FPU pass, returning any reservation held at the target.
func (s *Scheduler) EvictAborted(from int, id flow.ID) {
	s.evictBusy[from] = false
	fs := &s.flows[id]
	if fs.migrating && fs.mig.reserved && !fs.mig.toDRAM {
		s.fpcs[fs.mig.fpc].ReleaseReservation()
	}
	fs.migrating = false
}

// Installed is the FPC's signal that a migrated TCB landed in its table;
// the LUT flips to the new location and routing resumes (§4.3.2).
func (s *Scheduler) Installed(fpcIdx int, id flow.ID) {
	fs := &s.flows[id]
	fs.migrating = false
	fs.loc = locEntry{kind: locFPC, fpc: int8(fpcIdx)}
}

// PendingEvents returns the pending-queue depth (bounded-queue invariant
// checks in tests).
func (s *Scheduler) PendingEvents() int { return s.pending.Len() }
