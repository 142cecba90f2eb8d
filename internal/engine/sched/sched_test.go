package sched

import (
	"testing"

	"f4t/internal/cc"
	"f4t/internal/engine/fpc"
	"f4t/internal/engine/memmgr"
	"f4t/internal/flow"
	"f4t/internal/seqnum"
	"f4t/internal/sim"
	"f4t/internal/tcpproc"
)

type rig struct {
	k    *sim.Kernel
	s    *Scheduler
	fpcs []*fpc.FPC
	mem  *memmgr.Manager
}

func newRig(numFPCs, slots int) *rig {
	k := sim.New()
	proto := tcpproc.DefaultConfig()
	alg := cc.MustNew("newreno")
	r := &rig{k: k}
	r.mem = memmgr.New(k, memmgr.DefaultConfig(memmgr.HBM), memmgr.Hooks{
		OnSwapInRequest: func(id flow.ID) { r.s.RequestSwapIn(id) },
	})
	for i := 0; i < numFPCs; i++ {
		idx := i
		f := fpc.New(k, fpc.Config{Slots: slots, Alg: alg, Proto: &proto}, fpc.Hooks{
			OnActions:    func(t *flow.TCB, a *tcpproc.Actions) {},
			OnEvict:      func(t *flow.TCB) { r.s.Evicted(idx, t) },
			OnInstall:    func(id flow.ID) { r.s.Installed(idx, id) },
			OnEvictAbort: func(id flow.ID) { r.s.EvictAborted(idx, id) },
		})
		r.fpcs = append(r.fpcs, f)
	}
	r.s = New(k, DefaultConfig(numFPCs), r.fpcs, r.mem)
	k.Register(sim.TickerFunc(func(c int64) {
		r.s.Tick(c)
		for _, f := range r.fpcs {
			f.Tick(c)
		}
		r.mem.Tick(c)
	}))
	return r
}

func estTCB(id flow.ID) *flow.TCB {
	t := &flow.TCB{
		FlowID: id, State: flow.StateEstablished,
		ISS: 1000, SndUna: 1001, SndNxt: 1001, Req: 1001,
		IRS: 5000, RcvNxt: 5001, AppRead: 5001, DeliveredTo: 5001, LastAckSent: 5001,
		RcvBuf: 1 << 19, SndWnd: 1 << 20,
	}
	t.Cwnd = 1 << 20
	t.AckedToHost = 1001
	return t
}

func TestAllocateSpreadsByFlowCount(t *testing.T) {
	r := newRig(4, 8)
	for i := 0; i < 8; i++ {
		r.s.AllocateFlow(estTCB(flow.ID(i)))
	}
	for i, f := range r.fpcs {
		if f.FlowCount() != 2 {
			t.Fatalf("fpc %d has %d flows, want 2", i, f.FlowCount())
		}
	}
}

func TestAllocateOverflowsToDRAM(t *testing.T) {
	r := newRig(1, 4)
	for i := 0; i < 10; i++ {
		r.s.AllocateFlow(estTCB(flow.ID(i)))
	}
	if r.fpcs[0].FlowCount() != 4 || r.mem.FlowCount() != 6 {
		t.Fatalf("placement: fpc=%d dram=%d", r.fpcs[0].FlowCount(), r.mem.FlowCount())
	}
	inFPC, _, inDRAM, _ := r.s.Location(9)
	if inFPC || !inDRAM {
		t.Fatal("overflow flow not recorded as DRAM-resident")
	}
}

func TestRoutingReachesFPCAndDRAM(t *testing.T) {
	r := newRig(1, 2)
	r.s.AllocateFlow(estTCB(1)) // FPC
	r.s.AllocateFlow(estTCB(2)) // FPC
	r.s.AllocateFlow(estTCB(3)) // DRAM
	r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 1, HasReq: true, Req: 1101})
	r.s.Submit(flow.Event{Kind: flow.EvRx, Flow: 3, HasWnd: true, Wnd: 9}) // wnd-only: not actionable
	r.k.Run(300)
	if r.fpcs[0].EventsHandled.Total() != 1 {
		t.Fatalf("FPC handled %d", r.fpcs[0].EventsHandled.Total())
	}
	if r.mem.Handled.Total() != 1 {
		t.Fatalf("DRAM handled %d", r.mem.Handled.Total())
	}
}

func TestCoalescingMergesSameFlowUserEvents(t *testing.T) {
	r := newRig(1, 4)
	r.s.AllocateFlow(estTCB(1))
	// Submit many user requests back-to-back before any routing tick.
	req := seqnum.Value(1001)
	for i := 0; i < 10; i++ {
		req = req.Add(100)
		ok := r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 1, HasReq: true, Req: req, Coalescable: true})
		if !ok {
			t.Fatalf("submit %d rejected", i)
		}
	}
	if r.s.Coalesced.Total() != 9 {
		t.Fatalf("coalesced = %d, want 9", r.s.Coalesced.Total())
	}
	r.k.Run(300)
	// One routed event carrying the final pointer.
	if r.fpcs[0].EventsHandled.Total() != 1 {
		t.Fatalf("events handled = %d, want 1", r.fpcs[0].EventsHandled.Total())
	}
}

func TestCoalescingRespectsLossiness(t *testing.T) {
	r := newRig(1, 4)
	r.s.AllocateFlow(estTCB(1))
	// Dup-acks must never merge (information loss).
	r.s.Submit(flow.Event{Kind: flow.EvRx, Flow: 1, IsDupAck: true})
	r.s.Submit(flow.Event{Kind: flow.EvRx, Flow: 1, IsDupAck: true})
	if r.s.Coalesced.Total() != 0 {
		t.Fatal("lossy events coalesced")
	}
}

func TestCoalescingDisabledByConfig(t *testing.T) {
	k := sim.New()
	proto := tcpproc.DefaultConfig()
	alg := cc.MustNew("newreno")
	mem := memmgr.New(k, memmgr.DefaultConfig(memmgr.HBM), memmgr.Hooks{})
	f := fpc.New(k, fpc.Config{Slots: 4, Alg: alg, Proto: &proto}, fpc.Hooks{})
	cfg := DefaultConfig(1)
	cfg.Coalesce = false
	s := New(k, cfg, []*fpc.FPC{f}, mem)
	s.AllocateFlow(estTCB(1))
	s.Submit(flow.Event{Kind: flow.EvUser, Flow: 1, HasReq: true, Req: 1101, Coalescable: true})
	s.Submit(flow.Event{Kind: flow.EvUser, Flow: 1, HasReq: true, Req: 1201, Coalescable: true})
	if s.Coalesced.Total() != 0 {
		t.Fatal("coalescing ran while disabled")
	}
}

func TestSwapInAfterActionableEvent(t *testing.T) {
	r := newRig(1, 2)
	for i := 0; i < 5; i++ {
		r.s.AllocateFlow(estTCB(flow.ID(i)))
	}
	// Flow 4 lives in DRAM; a sendable request must pull it into the FPC.
	r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 4, HasReq: true, Req: 1101, Coalescable: true})
	ok := r.k.RunUntil(func() bool {
		inFPC, _, _, _ := r.s.Location(4)
		return inFPC && r.fpcs[0].Has(4)
	}, 50_000)
	if !ok {
		t.Fatalf("flow 4 never swapped in (migrations=%d swapins=%d)", r.s.Migrations.Total(), r.s.SwapIns.Total())
	}
	// Something was evicted to make room.
	if r.s.Migrations.Total() == 0 {
		t.Fatal("no eviction happened for the swap-in")
	}
	if r.fpcs[0].FlowCount() != 2 {
		t.Fatalf("FPC overfull: %d", r.fpcs[0].FlowCount())
	}
}

func TestMovingStateBlocksRoutingButLosesNothing(t *testing.T) {
	r := newRig(1, 2)
	for i := 0; i < 3; i++ {
		r.s.AllocateFlow(estTCB(flow.ID(i)))
	}
	// Trigger the swap-in of flow 2 (in DRAM) and immediately submit
	// more events for it: they must be held and delivered in order.
	r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 2, HasReq: true, Req: 1101, Coalescable: true})
	r.k.Run(30)
	r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 2, HasReq: true, Req: 1201, Coalescable: true})
	r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 2, HasReq: true, Req: 1301, Coalescable: true})
	ok := r.k.RunUntil(func() bool {
		if !r.fpcs[0].Has(2) {
			return false
		}
		// All three requests eventually reach the TCB: the final REQ
		// pointer must be the newest.
		return r.s.PendingEvents() == 0
	}, 100_000)
	if !ok {
		t.Fatal("pending events never drained")
	}
	r.k.Run(1000)
	if r.s.DroppedEvents.Total() != 0 {
		t.Fatalf("events dropped during migration: %d", r.s.DroppedEvents.Total())
	}
}

func TestFlowFreedClearsEverything(t *testing.T) {
	r := newRig(1, 2)
	r.s.AllocateFlow(estTCB(1))
	r.s.AllocateFlow(estTCB(2))
	r.s.AllocateFlow(estTCB(3)) // DRAM
	r.s.FlowFreed(3)
	if r.mem.Has(3) {
		t.Fatal("freed DRAM flow kept state")
	}
	inFPC, _, inDRAM, moving := r.s.Location(3)
	if inFPC || inDRAM || moving {
		t.Fatal("LUT entry survived the free")
	}
	// Events to the freed flow are dropped, not looped.
	r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 3, HasReq: true, Req: 1101})
	r.k.Run(100)
	if r.s.DroppedEvents.Total() != 1 {
		t.Fatalf("dropped = %d", r.s.DroppedEvents.Total())
	}
}

func TestReservationAccountingUnderChurn(t *testing.T) {
	// Sustained swap-in pressure must not leak reservations: the FPC's
	// flow count plus free slots must stay consistent.
	r := newRig(2, 4)
	for i := 0; i < 32; i++ {
		r.s.AllocateFlow(estTCB(flow.ID(i)))
	}
	req := make([]seqnum.Value, 32)
	for i := range req {
		req[i] = 1001
	}
	n := 0
	feeding := true
	r.k.Register(sim.TickerFunc(func(int64) {
		if !feeding {
			return
		}
		id := flow.ID(n % 32)
		n++
		req[id] = req[id].Add(10)
		r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: id, HasReq: true, Req: req[id], Coalescable: true})
	}))
	r.k.Run(50_000)
	// Quiesce: in-flight migrations settle, then every flow must be
	// accounted in exactly one place (no reservation or TCB leaks).
	feeding = false
	r.k.Run(20_000)
	total := r.mem.FlowCount()
	for _, f := range r.fpcs {
		total += f.FlowCount()
	}
	if total != 32 {
		for i := flow.ID(0); i < 32; i++ {
			inFPC, fi, inDRAM, moving := r.s.Location(i)
			if !inFPC && !inDRAM {
				t.Logf("flow %d: fpc=%v(%d) dram=%v moving=%v slot=%+v", i, inFPC, fi, inDRAM, moving, r.s.flows[i])
			}
		}
		t.Fatalf("flows accounted after quiesce = %d/32 (pending=%d swapQ=%d)", total, r.s.PendingEvents(), r.s.swapReqs.Len())
	}
	if r.s.SwapIns.Total() == 0 || r.s.Migrations.Total() == 0 {
		t.Fatal("no migration churn happened — test ineffective")
	}
	if r.s.DroppedEvents.Total() != 0 {
		t.Fatalf("events dropped: %d", r.s.DroppedEvents.Total())
	}
}
