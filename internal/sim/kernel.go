package sim

import (
	"fmt"
	"math"
	"reflect"
)

// CycleNS is the duration of one engine clock cycle in nanoseconds.
// FtEngine operates at 250 MHz (paper §4.1).
const CycleNS = 4

// FrequencyHz is the engine clock frequency.
const FrequencyHz = 250_000_000

// Ticker is a hardware component stepped once per simulated cycle.
type Ticker interface {
	// Tick advances the component by one cycle. The current cycle number
	// is passed for convenience; it increases by exactly one per call.
	Tick(cycle int64)
}

// TickerFunc adapts a function to the Ticker interface.
type TickerFunc func(cycle int64)

// Tick implements Ticker.
func (f TickerFunc) Tick(cycle int64) { f(cycle) }

// Dormant is the NextWork return value for a component with no
// self-generated future work: only an external stimulus (kernel timer,
// Wake, or another component's same-cycle action) can make it act.
const Dormant = int64(math.MaxInt64)

// Sleeper is a Ticker that can report idleness. NextWork returns the
// earliest cycle at which the component could possibly act: a value
// <= now means "busy, step me next cycle"; a future cycle promises that
// every Tick before it would be a pure no-op (no state change, no
// counter movement); Dormant promises that indefinitely. The promise
// only covers the component's own state — work injected from outside
// must arrive via a kernel timer or a Wake call.
type Sleeper interface {
	Ticker
	NextWork(now int64) int64
}

// Runner is the surface shared by the serial Kernel and the
// ShardedKernel: everything a workload driver needs to advance
// simulated time. Rig harnesses written against Runner run unchanged on
// either execution mode.
type Runner interface {
	Now() int64
	NowNS() int64
	Run(n int64)
	RunUntil(pred func() bool, budget int64) bool
	Stop()
}

// PostAt schedules fn at an absolute cycle. It is the type of Kernel.At
// and of the cross-shard posting funcs a Fabric hands out.
type PostAt func(cycle int64, fn func())

// Poster schedules callbacks at absolute cycles. At takes a closure;
// AtCall takes a plain function plus its argument, which lets per-packet
// hot paths schedule a delivery without allocating a closure (storing a
// pointer in an `any` does not allocate). Both forms share the same
// deterministic ordering key. The Kernel and the cross-shard Mailbox
// both implement Poster; Fabric.CrossPost hands one out.
type Poster interface {
	At(cycle int64, fn func())
	AtCall(cycle int64, call func(arg any), arg any)
}

// Fabric abstracts where a rig's components live: on a single serial
// Kernel (every island shares it) or spread across the shards of a
// ShardedKernel. Rig builders target Fabric so one construction path
// yields both execution modes with identical registration order — the
// property the bit-for-bit differential battery depends on.
//
// An island is a group of components that share state directly (an
// engine plus its host machine and apps). Cross-island interactions
// must go through the Poster returned by CrossPost, which carries the
// link's minimum latency so the sharded scheduler can derive its
// conservative lookahead.
type Fabric interface {
	Runner
	// IslandKernel returns the kernel that drives the island's clock:
	// the Kernel itself on a serial fabric, the owning shard otherwise.
	IslandKernel(island int) *Kernel
	// RegisterOn registers t on the island's kernel. Components must be
	// registered in the same global order on every fabric; the slot
	// numbers this assigns are the deterministic tie-break for timers.
	RegisterOn(island int, t Ticker)
	// CrossPost returns the scheduler for deliveries from src to dst.
	// minLatency is the smallest possible cycle delta between posting
	// and the posted cycle; it lower-bounds the fabric's lookahead.
	CrossPost(src, dst int, minLatency int64) Poster
}

// timerEvent is a scheduled callback ordered by a structured key that
// is identical whether the rig runs on one kernel or across shards:
//
//	(cycle, icycle, slot, sub)
//
// cycle is the fire cycle. The remaining fields identify the insertion
// deterministically: icycle is the cycle the event was scheduled on,
// slot is the global registration slot of the component whose code
// scheduled it (-1 for code running outside any component, e.g. test
// setup), and sub is that context's monotonically increasing insertion
// counter. Because no field depends on goroutine interleaving — only on
// the inserting component's own deterministic execution — merging
// cross-shard events into a shard's heap reproduces exactly the firing
// order a single serial kernel would have used.
type timerEvent struct {
	cycle  int64         // fire cycle
	icycle int64         // insertion cycle
	slot   int32         // inserting context's global slot (-1 = external)
	sub    int64         // per-context insertion counter
	fn     func()        // closure form (At)
	call   func(arg any) // call form (AtCall); fires call(arg) when non-nil
	arg    any
}

func keyLess(a, b *timerEvent) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	if a.icycle != b.icycle {
		return a.icycle < b.icycle
	}
	if a.slot != b.slot {
		return a.slot < b.slot
	}
	return a.sub < b.sub
}

// timerHeap is a hand-rolled binary min-heap ordered by keyLess. The
// kernel schedules one timer per DMA completion, TX serialization, and
// link delivery, so the interface boxing container/heap would impose
// (one allocation per Push and per Pop) is a measurable cost on
// saturated rigs; sifting over the concrete slice keeps the hot path
// allocation-free.
type timerHeap []timerEvent

func (h *timerHeap) push(ev timerEvent) {
	s := append(*h, ev)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !keyLess(&s[i], &s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *timerHeap) pop() timerEvent {
	s := *h
	n := len(s) - 1
	ev := s[0]
	s[0] = s[n]
	s[n] = timerEvent{} // release fn/arg references
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && keyLess(&s[l], &s[min]) {
			min = l
		}
		if r < n && keyLess(&s[r], &s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return ev
}

// tickerEntry is one registered component plus its sleep bookkeeping.
type tickerEntry struct {
	t      Ticker
	s      Sleeper // nil for opaque (non-Sleeper) tickers
	wakeAt int64   // earliest explicit Wake hint; Dormant = none
	slot   int32   // global registration slot (ties across shards)
	sub    int64   // timer-insertion counter for this component's code
}

// Kernel is the simulation driver. The zero value is not usable; call New.
type Kernel struct {
	cycle     int64
	tickers   []tickerEntry
	index     map[Ticker]int // identity → slot index, comparable tickers only
	slotIndex []int          // global slot → tickers index, -1 = another shard's
	opaque    int            // registered tickers without NextWork
	timers    timerHeap
	nextSlot  int32
	extSub    int64 // insertion counter for code outside any component
	stopped   bool

	// Current insertion context: which component's code is running.
	// curSub is nil while executing a timer posted by a component on
	// another shard — such callbacks must not schedule local timers
	// (they would need that foreign component's counter, which lives on
	// its own shard); they post through their Mailbox instead.
	curSlot int32
	curSub  *int64

	noskip  bool  // shadow mode: historical always-step loop
	anyWake int64 // wake floor for tickers the index cannot address
	skipped int64 // total cycles skipped (stats)
	skips   int64 // skip jumps taken (stats)
}

// New returns an empty kernel positioned at cycle 0 with quiescence
// skipping enabled.
func New() *Kernel {
	k := &Kernel{anyWake: Dormant, curSlot: -1}
	k.curSub = &k.extSub
	return k
}

// NewShadow returns a kernel running the historical always-step loop —
// the reference for differential testing against the skipping kernel.
func NewShadow() *Kernel {
	k := New()
	k.noskip = true
	return k
}

// SetSkipping enables or disables quiescence skipping. Results are
// identical either way; disabling trades wall-clock speed for the
// simpler always-step loop (used by the differential harness).
func (k *Kernel) SetSkipping(on bool) { k.noskip = !on }

// Skipping reports whether quiescence skipping is enabled.
func (k *Kernel) Skipping() bool { return !k.noskip }

// SkippedCycles returns the total cycles fast-forwarded so far.
func (k *Kernel) SkippedCycles() int64 { return k.skipped }

// Skips returns how many fast-forward jumps have been taken.
func (k *Kernel) Skips() int64 { return k.skips }

// Now returns the current cycle number.
func (k *Kernel) Now() int64 { return k.cycle }

// NowNS returns the current simulated time in nanoseconds.
func (k *Kernel) NowNS() int64 { return k.cycle * CycleNS }

// Register adds a component to the per-cycle tick list. Components tick
// in registration order every cycle. A component that implements
// Sleeper participates in quiescence skipping; any other ticker pins
// the kernel to per-cycle stepping.
func (k *Kernel) Register(t Ticker) {
	k.RegisterSlot(t, k.nextSlot)
}

// RegisterSlot is Register with an explicit global slot number — the
// deterministic identity used to order this component's timers against
// everyone else's. The ShardedKernel assigns slots from a fabric-wide
// counter so a component keeps the same slot whether its rig runs
// serially or sharded. Slots must be registered in increasing order on
// any one kernel (tick order within a cycle is slot order).
func (k *Kernel) RegisterSlot(t Ticker, slot int32) {
	if n := len(k.tickers); n > 0 && k.tickers[n-1].slot >= slot {
		panic(fmt.Sprintf("sim: slot %d registered after slot %d; slots must be increasing", slot, k.tickers[n-1].slot))
	}
	e := tickerEntry{t: t, wakeAt: Dormant, slot: slot}
	if s, ok := t.(Sleeper); ok {
		e.s = s
	} else {
		k.opaque++
	}
	k.tickers = append(k.tickers, e)
	for int(slot) >= len(k.slotIndex) {
		k.slotIndex = append(k.slotIndex, -1)
	}
	k.slotIndex[slot] = len(k.tickers) - 1
	if slot >= k.nextSlot {
		k.nextSlot = slot + 1
	}
	// Identity-addressable tickers get a Wake slot. Func-typed tickers
	// (TickerFunc) are not comparable and would panic as map keys; Wake
	// falls back to the global floor for them.
	if t != nil && reflect.TypeOf(t).Comparable() {
		if k.index == nil {
			k.index = make(map[Ticker]int)
		}
		k.index[t] = len(k.tickers) - 1
	}
}

// Wake hints that the component has work on the next cycle — call it at
// work-injection points (doorbell posts, packet arrival) whose target
// may currently be reporting Dormant.
func (k *Kernel) Wake(t Ticker) { k.WakeAt(t, k.cycle+1) }

// WakeAt hints that the component has work at the given cycle. Hints
// only bound skipping (earlier of hint and NextWork wins); they never
// delay a busy component. Unregistered or non-comparable tickers lower
// a global wake floor instead, which is safe but skips less.
func (k *Kernel) WakeAt(t Ticker, cycle int64) {
	if cycle <= k.cycle {
		cycle = k.cycle + 1
	}
	if t != nil && k.index != nil && reflect.TypeOf(t).Comparable() {
		if idx, ok := k.index[t]; ok {
			if cycle < k.tickers[idx].wakeAt {
				k.tickers[idx].wakeAt = cycle
			}
			return
		}
	}
	if cycle < k.anyWake {
		k.anyWake = cycle
	}
}

// At schedules fn to run at the start of the given absolute cycle,
// before components tick. Scheduling in the past (or present) runs the
// callback on the next Step. Same-cycle events fire in a deterministic
// order: by insertion cycle, then by the inserting component's slot,
// then by insertion order within that component.
func (k *Kernel) At(cycle int64, fn func()) {
	k.timers.push(k.event(cycle, fn, nil, nil))
}

// AtCall is At for the closure-free form: it schedules call(arg) at the
// given cycle. Hot paths that would otherwise capture their argument in
// a fresh closure per event (one per packet delivery) pre-build one
// func(any) and pass the payload through arg instead.
func (k *Kernel) AtCall(cycle int64, call func(arg any), arg any) {
	k.timers.push(k.event(cycle, nil, call, arg))
}

// event stamps a timer with the current insertion context's key.
func (k *Kernel) event(cycle int64, fn func(), call func(arg any), arg any) timerEvent {
	if cycle <= k.cycle {
		cycle = k.cycle + 1
	}
	if k.curSub == nil {
		panic("sim: scheduling a local timer from a cross-shard delivery; post through the Mailbox instead")
	}
	*k.curSub++
	return timerEvent{cycle: cycle, icycle: k.cycle, slot: k.curSlot, sub: *k.curSub, fn: fn, call: call, arg: arg}
}

// After schedules fn to run delta cycles from now (minimum 1).
func (k *Kernel) After(delta int64, fn func()) {
	if delta < 1 {
		delta = 1
	}
	k.At(k.cycle+delta, fn)
}

// inject merges an externally built event (a cross-shard delivery) into
// the timer heap. Only the ShardedKernel calls this, at barriers.
func (k *Kernel) inject(ev timerEvent) {
	k.timers.push(ev)
}

// Stop requests that Run return at the end of the current cycle.
func (k *Kernel) Stop() { k.stopped = true }

// Step advances the simulation by exactly one cycle: due timers fire
// first, then every registered component ticks once. Consumed wake
// hints are cleared.
func (k *Kernel) Step() {
	k.cycle++
	for len(k.timers) > 0 && k.timers[0].cycle <= k.cycle {
		ev := k.timers.pop()
		// Timer callbacks inherit the scheduling component's identity,
		// so chains like "engine tick → At(txDone) → pipe.Send → At(
		// delivery)" stay ordered by the originating slot. A foreign
		// slot (cross-shard delivery) has no local counter; its
		// callback may not schedule local timers.
		if ev.slot >= 0 && int(ev.slot) < len(k.slotIndex) && k.slotIndex[ev.slot] >= 0 {
			k.curSlot, k.curSub = ev.slot, &k.tickers[k.slotIndex[ev.slot]].sub
		} else if ev.slot < 0 {
			k.curSlot, k.curSub = -1, &k.extSub
		} else {
			k.curSlot, k.curSub = ev.slot, nil
		}
		if ev.call != nil {
			ev.call(ev.arg)
		} else {
			ev.fn()
		}
	}
	for i := range k.tickers {
		e := &k.tickers[i]
		if e.wakeAt <= k.cycle {
			e.wakeAt = Dormant
		}
		k.curSlot, k.curSub = e.slot, &e.sub
		e.t.Tick(k.cycle)
	}
	k.curSlot, k.curSub = -1, &k.extSub
	if k.anyWake <= k.cycle {
		k.anyWake = Dormant
	}
}

// nextEventCycle returns the earliest cycle > now at which anything can
// happen: a ticker's self-reported work, an explicit wake hint, or a
// kernel timer. Dormant means nothing ever will.
func (k *Kernel) nextEventCycle() int64 {
	now := k.cycle
	next := Dormant
	if len(k.timers) > 0 && k.timers[0].cycle < next {
		next = k.timers[0].cycle
	}
	if k.anyWake < next {
		next = k.anyWake
	}
	for i := range k.tickers {
		e := &k.tickers[i]
		if e.wakeAt < next {
			next = e.wakeAt
		}
		if w := e.s.NextWork(now); w < next {
			next = w
		}
		if next <= now+1 {
			return now + 1 // someone is busy: no skip possible
		}
	}
	return next
}

// advanceTo fast-forwards the clock so the next Step lands on the
// earliest cycle with potential work, never beyond limit. With any
// opaque ticker registered it is a no-op.
func (k *Kernel) advanceTo(limit int64) {
	if k.noskip || k.opaque > 0 || len(k.tickers) == 0 {
		return
	}
	next := k.nextEventCycle()
	if next > limit {
		next = limit
	}
	if d := next - 1 - k.cycle; d > 0 {
		k.cycle += d
		k.skipped += d
		k.skips++
	}
}

// Run advances the simulation by n cycles, or until Stop is called.
// Provably idle spans are fast-forwarded; the end cycle is exact.
func (k *Kernel) Run(n int64) {
	k.stopped = false
	end := k.cycle + n
	for k.cycle < end && !k.stopped {
		k.advanceTo(end)
		k.Step()
	}
}

// observable returns the next cycle <= limit at which RunUntil must
// evaluate its predicate: the next cycle where simulation activity can
// occur, or the limit. With opaque tickers registered every cycle is
// observable.
func (k *Kernel) observable(limit int64) int64 {
	if k.opaque > 0 || len(k.tickers) == 0 {
		return k.cycle + 1
	}
	next := k.nextEventCycle()
	if next > limit {
		next = limit
	}
	return next
}

// RunUntil advances the simulation until the predicate returns true or
// the cycle budget is exhausted, honoring Stop like Run does. It
// reports whether the predicate fired.
//
// The predicate is evaluated at exactly the cycles where simulation
// activity can occur (plus the budget boundary) — in both kernel modes.
// The skipping kernel cannot evaluate it inside a skipped span, so the
// shadow kernel deliberately restricts itself to the same observation
// cycles; a differential run therefore calls the predicate at identical
// cycles, which matters when the predicate has side effects or depends
// on Now() rather than simulation state. Since no component state
// changes inside a skipped span, predicates over simulation state still
// observe every transition they could under per-cycle evaluation.
func (k *Kernel) RunUntil(pred func() bool, budget int64) bool {
	k.stopped = false
	end := k.cycle + budget
	for k.cycle < end && !k.stopped {
		if pred() {
			return true
		}
		if k.noskip {
			// Step through the gap cycle by cycle (shadow semantics) but
			// evaluate the predicate only where the skipping kernel can.
			next := k.observable(end)
			for k.cycle < next && !k.stopped {
				k.Step()
			}
			continue
		}
		k.advanceTo(end)
		k.Step()
	}
	return pred()
}

// --- Fabric: a serial kernel is the one-shard fabric ---

// IslandKernel implements Fabric: every island lives on the kernel.
func (k *Kernel) IslandKernel(island int) *Kernel { return k }

// RegisterOn implements Fabric.
func (k *Kernel) RegisterOn(island int, t Ticker) { k.Register(t) }

// CrossPost implements Fabric: on a serial fabric cross-island
// deliveries are ordinary timers.
func (k *Kernel) CrossPost(src, dst int, minLatency int64) Poster { return k }

// NSToCycles converts a nanosecond duration to cycles, rounding up.
func NSToCycles(ns int64) int64 {
	return (ns + CycleNS - 1) / CycleNS
}

// String describes the kernel state, mostly for test failure messages.
func (k *Kernel) String() string {
	return fmt.Sprintf("sim.Kernel{cycle=%d tickers=%d timers=%d skipped=%d}", k.cycle, len(k.tickers), len(k.timers), k.skipped)
}
