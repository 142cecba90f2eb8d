// Package memmgr models the memory manager of §4.3.1: the DRAM-resident
// TCB store that gives F4T its 64 K-flow connectivity, the direct-mapped
// TCB cache in front of it, the event handling performed directly on
// DRAM TCBs, and the check logic that decides which flows are worth
// swapping into an FPC.
package memmgr

import (
	"unsafe"

	"f4t/internal/flow"
	"f4t/internal/sim"
	"f4t/internal/tcpproc"
)

// TCBBytes is the modelled size of one TCB in device memory. The store
// is charged one read and one write of this size per uncached access.
const TCBBytes = 128

// MemoryKind selects the device memory technology (§4.7).
type MemoryKind uint8

const (
	// DDR is the U280's DDR4 channel pair: 38 GB/s peak (§4.7).
	DDR MemoryKind = iota
	// HBM is the U280's high-bandwidth memory: 460 GB/s peak (§4.7).
	HBM
)

// Config parameterizes the manager.
type Config struct {
	Kind      MemoryKind
	CacheSize int // direct-mapped TCB cache entries (0 disables)

	// RandomAccessPct derates peak bandwidth for the short random
	// accesses TCB traffic consists of (row activation overhead on DDR;
	// pseudo-channel conflicts on HBM). DDR suffers far more at 128 B
	// granularity.
	RandomAccessPct int
	LatencyNS       int64 // access latency
}

// DefaultConfig returns the model for the given memory kind. The derates
// reflect 128 B random access: DDR4 delivers roughly a third of peak;
// HBM's many pseudo-channels keep most of it.
func DefaultConfig(kind MemoryKind) Config {
	switch kind {
	case HBM:
		return Config{Kind: HBM, CacheSize: 512, RandomAccessPct: 60, LatencyNS: 120}
	default:
		return Config{Kind: DDR, CacheSize: 512, RandomAccessPct: 35, LatencyNS: 100}
	}
}

// Hooks wire the manager's outputs.
type Hooks struct {
	// OnSwapInRequest fires when the check logic finds a DRAM-resident
	// flow that can send packets (§4.3.1).
	OnSwapInRequest func(id flow.ID)
}

// dramSlot is one flow ID's entry in the DRAM TCB store.
type dramSlot struct {
	tcb    *flow.TCB // nil = not resident
	queued int32     // events of the flow across input+inFlight
}

type pendingEvent struct {
	ev      flow.Event
	readyAt int64
}

// Manager is the memory manager.
type Manager struct {
	k     *sim.Kernel
	cfg   Config
	hooks Hooks

	slots []dramSlot // indexed by flow ID; grows with Insert
	cache []flow.ID  // direct-mapped: cache[i] = resident flow (NoFlow = empty)
	rate  *sim.ByteRate
	lat   int64 // access latency in cycles

	input    *sim.Queue[flow.Event]
	inFlight *sim.Queue[pendingEvent]

	// Stats.
	Handled   sim.Counter
	CacheHits sim.Counter
	CacheMiss sim.Counter
	SwapReqs  sim.Counter
}

// New builds a manager.
func New(k *sim.Kernel, cfg Config, hooks Hooks) *Manager {
	var peak int64
	switch cfg.Kind {
	case HBM:
		peak = 460
	default:
		peak = 38
	}
	if cfg.RandomAccessPct <= 0 {
		cfg.RandomAccessPct = 100
	}
	// Effective bytes/cycle = peak GB/s × derate; GBpsRate is ×4 B/cycle.
	num := peak * 4 * int64(cfg.RandomAccessPct)
	m := &Manager{
		k:        k,
		cfg:      cfg,
		hooks:    hooks,
		rate:     sim.NewByteRate(num, 100),
		lat:      sim.NSToCycles(cfg.LatencyNS),
		input:    sim.NewQueue[flow.Event](0),
		inFlight: sim.NewQueue[pendingEvent](0),
	}
	if cfg.CacheSize > 0 {
		m.cache = make([]flow.ID, cfg.CacheSize)
		for i := range m.cache {
			m.cache[i] = flow.NoFlow
		}
	}
	return m
}

// FlowCount returns DRAM-resident flows.
func (m *Manager) FlowCount() int {
	n := 0
	for i := range m.slots {
		if m.slots[i].tcb != nil {
			n++
		}
	}
	return n
}

// tcb returns the resident TCB of id, or nil.
func (m *Manager) tcb(id flow.ID) *flow.TCB {
	if int(id) < len(m.slots) {
		return m.slots[id].tcb
	}
	return nil
}

// Has reports residency.
func (m *Manager) Has(id flow.ID) bool { return m.tcb(id) != nil }

// Holds reports whether the manager keeps any state for id: a resident
// TCB or queued events. A flow ID must be free of both before reuse.
func (m *Manager) Holds(id flow.ID) bool {
	return m.Has(id) || (int(id) < len(m.slots) && m.slots[id].queued != 0)
}

// SlotBytes returns the allocated bytes of the per-flow slots.
func (m *Manager) SlotBytes() int64 {
	return int64(cap(m.slots)) * int64(unsafe.Sizeof(dramSlot{}))
}

// slot returns id's entry, growing the store to cover it.
func (m *Manager) slot(id flow.ID) *dramSlot {
	for int(id) >= len(m.slots) {
		m.slots = append(m.slots, dramSlot{})
	}
	return &m.slots[id]
}

// Insert stores an evicted TCB (charging a DRAM write).
func (m *Manager) Insert(t *flow.TCB) {
	m.slot(t.FlowID).tcb = t
	t.EvictFlag = false
	m.chargeAccess(t.FlowID, true)
}

// Extract removes a TCB for swap-in, returning it and the cycle at which
// the DRAM read completes (the scheduler forwards it to the FPC then).
// Events already queued inside the manager for this flow are handled
// into the TCB first so they migrate with it — the "handled events are
// later processed in FPC" guarantee (§4.3.1).
func (m *Manager) Extract(id flow.ID) (*flow.TCB, int64, bool) {
	t := m.tcb(id)
	if t == nil {
		return nil, 0, false
	}
	m.absorbQueued(t)
	m.slots[id].tcb = nil
	m.uncache(id)
	done := m.chargeAccess(id, false)
	return t, done, true
}

// absorbQueued folds every queued/in-flight event of the flow into its
// TCB's event-input row and removes them from the queues. The per-flow
// pending count makes the common case (no queued events) free; the
// queue rebuild only runs when events are actually present.
func (m *Manager) absorbQueued(t *flow.TCB) {
	if m.slots[t.FlowID].queued == 0 {
		return
	}
	m.slots[t.FlowID].queued = 0
	keepIn := m.input
	m.input = sim.NewQueue[flow.Event](0)
	for {
		ev, ok := keepIn.Pop()
		if !ok {
			break
		}
		if ev.Flow == t.FlowID {
			t.In.Accumulate(&ev)
			m.Handled.Inc()
		} else {
			m.input.Push(ev)
		}
	}
	keepFl := m.inFlight
	m.inFlight = sim.NewQueue[pendingEvent](0)
	for {
		pe, ok := keepFl.Pop()
		if !ok {
			break
		}
		if pe.ev.Flow == t.FlowID {
			t.In.Accumulate(&pe.ev)
			m.Handled.Inc()
		} else {
			m.inFlight.Push(pe)
		}
	}
}

// Drop discards a DRAM-resident flow (connection freed while swapped out).
func (m *Manager) Drop(id flow.ID) {
	if m.Has(id) {
		m.slots[id].tcb = nil
	}
	m.uncache(id)
}

// EnqueueEvent routes one event to a DRAM-resident flow.
func (m *Manager) EnqueueEvent(ev flow.Event) bool {
	if !m.input.Push(ev) {
		return false
	}
	m.slot(ev.Flow).queued++
	return true
}

// unqueue decrements the per-flow pending count.
func (m *Manager) unqueue(id flow.ID) {
	if s := &m.slots[id]; s.queued > 0 {
		s.queued--
	}
}

// Backlog returns events queued for handling.
func (m *Manager) Backlog() int { return m.input.Len() + m.inFlight.Len() }

// chargeAccess books one TCB transfer against DRAM bandwidth and
// latency. Cache hits (when tracking an access, not an insert/extract)
// bypass the charge.
func (m *Manager) chargeAccess(id flow.ID, write bool) int64 {
	return m.rate.Reserve(m.k.Now(), TCBBytes) + m.lat
}

func (m *Manager) cacheSlot(id flow.ID) int {
	if len(m.cache) == 0 {
		return -1
	}
	return int(uint32(id)) % len(m.cache)
}

func (m *Manager) uncache(id flow.ID) {
	if s := m.cacheSlot(id); s >= 0 && m.cache[s] == id {
		m.cache[s] = flow.NoFlow
	}
}

// NextWork implements sim.Sleeper for the engine's aggregate idleness
// report: a queued event starts an access immediately; in-flight
// accesses retire strictly in order, so the head's readyAt is the next
// cycle anything can retire even when later entries (cache hits behind
// a miss) are nominally due earlier.
func (m *Manager) NextWork(now int64) int64 {
	if m.input.Len() > 0 {
		return now + 1
	}
	if pe, ok := m.inFlight.Peek(); ok {
		if pe.readyAt <= now {
			return now + 1
		}
		return pe.readyAt
	}
	return sim.Dormant
}

// Tick advances the manager: start handling queued events (cache lookup,
// DRAM RMW) and retire those whose memory access completed — handling
// events "directly to TCBs in the memory" (§4.3.1).
func (m *Manager) Tick(cycle int64) {
	// Event-driven dispatch: nothing queued and nothing in flight means
	// both stages below are no-ops.
	if m.input.Len() == 0 && m.inFlight.Len() == 0 {
		return
	}
	// Start at most one new access per cycle.
	if ev, ok := m.input.Peek(); ok {
		if t := m.tcb(ev.Flow); t == nil {
			m.input.Pop() // flow left DRAM while the event was queued
			m.unqueue(ev.Flow)
		} else {
			m.input.Pop()
			readyAt := cycle
			if s := m.cacheSlot(ev.Flow); s >= 0 && m.cache[s] == ev.Flow {
				m.CacheHits.Inc()
				readyAt = cycle + 1 // BRAM cache hit: single-cycle
			} else {
				m.CacheMiss.Inc()
				// Read-modify-write on the DRAM row; fill the cache slot.
				done := m.rate.Reserve(cycle, 2*TCBBytes) + m.lat
				if s >= 0 {
					m.cache[s] = ev.Flow
				}
				readyAt = done
			}
			m.inFlight.Push(pendingEvent{ev: ev, readyAt: readyAt})
		}
	}

	// Retire completed accesses in order.
	for {
		pe, ok := m.inFlight.Peek()
		if !ok || pe.readyAt > cycle {
			return
		}
		m.inFlight.Pop()
		m.unqueue(pe.ev.Flow)
		t := m.tcb(pe.ev.Flow)
		if t == nil {
			continue
		}
		t.In.Accumulate(&pe.ev)
		t.LastActive = cycle
		m.Handled.Inc()
		// Check logic: swap in only flows that can send packets (§4.3.1).
		if tcpproc.Actionable(t) && m.hooks.OnSwapInRequest != nil {
			m.SwapReqs.Inc()
			m.hooks.OnSwapInRequest(pe.ev.Flow)
		}
	}
}
