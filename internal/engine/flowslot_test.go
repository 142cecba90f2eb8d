package engine_test

import (
	"testing"

	"f4t/internal/engine"
	"f4t/internal/flow"
	"f4t/internal/softstack"
	"f4t/internal/telemetry"
	"f4t/internal/wire"
)

// released reports which layer, if any, still holds state for a flow ID
// of e.
func released(e *engine.Engine, id flow.ID) string {
	switch {
	case e.TCB(id) != nil:
		return "engine"
	case e.Scheduler().Holds(id):
		return "sched"
	case e.Mem().Holds(id):
		return "memmgr"
	}
	for _, f := range e.FPCs() {
		if f.Has(id) {
			return "fpc"
		}
	}
	return ""
}

// Flow IDs are recycled through the engine's free list. Opening more
// flows than the FPCs hold (so some live in DRAM), aborting them all and
// opening the same number again must hand back exactly the freed IDs —
// ID 0 included — with every layer's slot clean at reuse, a new slot
// generation, working connections and no lifecycle violation counted.
func TestFlowIDReuseLeavesNoStaleState(t *testing.T) {
	const flows = 24
	r := newRig(t, func(c *engine.Config) { c.NumFPCs, c.SlotsPerFPC = 2, 4 })
	r.l2.Listen(80)
	var accepted []*softstack.Socket
	r.ev2 = func(ev softstack.Event) {
		if ev.Kind == softstack.EvAccepted {
			accepted = append(accepted, ev.Sock)
		}
	}
	open := func() []*softstack.Socket {
		accepted = accepted[:0]
		var socks []*softstack.Socket
		for len(socks) < flows {
			if s := r.l1.Dial(wire.MakeAddr(10, 0, 0, 2), 80); s != nil {
				socks = append(socks, s)
			}
			r.k.Run(200)
		}
		r.run(t, func() bool {
			for _, s := range socks {
				if !s.Established {
					return false
				}
			}
			return len(accepted) == flows
		}, 5_000_000, "handshakes")
		return socks
	}

	first := open()
	if n := r.e1.Mem().FlowCount() + r.e2.Mem().FlowCount(); n == 0 {
		t.Fatal("no flow lives in DRAM: the rig does not exercise swapping")
	}
	gen := make([]uint32, flows)
	for _, s := range first {
		if s.ID >= flows {
			t.Fatalf("first flows got ID %d, want IDs below %d", s.ID, flows)
		}
		gen[s.ID] = r.e1.FlowGen(s.ID)
		s.Abort()
	}
	r.run(t, func() bool { return r.e1.FlowCount() == 0 && r.e2.FlowCount() == 0 }, 5_000_000, "aborts to free every flow")
	for _, e := range []*engine.Engine{r.e1, r.e2} {
		for id := flow.ID(0); id < flows; id++ {
			if layer := released(e, id); layer != "" {
				t.Fatalf("%v: freed flow %d still held by %s", e, id, layer)
			}
		}
	}

	second := open()
	seen := make([]bool, flows)
	for _, s := range second {
		if s.ID >= flows || seen[s.ID] {
			t.Fatalf("reopened flow got ID %d, want a recycled one", s.ID)
		}
		if g := r.e1.FlowGen(s.ID); g != gen[s.ID]+1 {
			t.Fatalf("flow %d generation %d after reuse, want %d", s.ID, g, gen[s.ID]+1)
		}
		seen[s.ID] = true
	}
	if !seen[0] {
		t.Fatal("ID 0 was not reused")
	}
	// The recycled flows carry data end to end, DRAM-resident ones too.
	msg := []byte("recycled")
	for _, s := range second {
		if n := s.Send(msg); n != len(msg) {
			t.Fatalf("flow %d: Send = %d", s.ID, n)
		}
	}
	r.run(t, func() bool {
		for _, s := range accepted {
			if s.Available() < len(msg) {
				return false
			}
		}
		return true
	}, 5_000_000, "data on the recycled flows")

	for _, e := range []*engine.Engine{r.e1, r.e2} {
		if v := e.FlowSlotViolations.Total(); v != 0 {
			t.Fatalf("%v: %d flow-slot violations", e, v)
		}
		fp := telemetry.NewFootprint()
		e.InstrumentMem(fp, "eng")
		var slots telemetry.MemItem
		for _, it := range fp.Snapshot() {
			if it.Name == "eng.flow_slots" {
				slots = it
			}
		}
		if slots.Entries != flows || slots.Bytes <= 0 {
			t.Fatalf("flow_slots probe = %+v, want %d entries and their bytes", slots, flows)
		}
	}
}
