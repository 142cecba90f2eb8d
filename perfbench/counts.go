package main

// Raw cumulative counters every rig exposes, indexed by the constants
// below. The window differences two readings; the digest folds both the
// differences and the end values. Counters a rig does not have stay 0.
const (
	cCycle   = iota // kernel cycle
	cSkipped        // cycles fast-forwarded by the kernel
	cSkips          // fast-forward jumps
	cOps            // completed operations (workload definition)
	cPayload        // payload bytes delivered to receiving apps

	cRxPkts        // engine: frames received
	cRxDropped     // engine: frames dropped at the parser queue
	cRetrans       // engine: segments re-sent
	cEngRejected   // engine: opens refused (flow table / ID space full)
	cMemHits       // memmgr: TCB cache hits
	cMemMiss       // memmgr: TCB cache misses
	cSwapReqs      // memmgr: swap-in requests
	cRouted        // sched: events routed to an FPC
	cCoalesced     // sched: events merged into a pending one
	cMigrations    // sched: TCB migrations between FPCs
	cBackpressure  // sched: events bounced off a full FPC input
	cFPCStalls     // fpc: stall-mode busy cycles
	cFPCProcessed  // fpc: FPU passes completed
	cPCIeBusyDevA  // hostif: host→device busy cycles, engine A
	cPCIeBusyDevB  // hostif: host→device busy cycles, engine B
	cPCIeBusyHostA // hostif: device→host busy cycles, engine A
	cPCIeBusyHostB // hostif: device→host busy cycles, engine B
	cTLPs          // hostif: PCIe transactions, both directions, both engines
	cLibCmds       // softstack: commands posted
	cPostFailures  // softstack: posts refused by a full command queue

	cLinkBytesAB // netsim: wire bytes sent A→B
	cLinkBytesBA // netsim: wire bytes sent B→A
	cLinkPkts    // netsim: packets sent, both directions
	cLinkDropped // netsim: packets dropped, both directions

	cStackEvents   // stack: events processed, every endpoint
	cStackRxPkts   // stack: frames handled, every endpoint
	cTableKicks    // stack: cuckoo displacement kicks, every endpoint
	cTableResizes  // stack: flow-table doublings, every endpoint
	cStackRejected // stack: opens refused, every endpoint
	cOpened        // stack: connections the churn driver opened
	cRefused       // refusals outside the layers' own counters: Dial returned nil, undeliverable packets

	cCheckA // workload-specific conservation inputs (see each rig)
	cCheckB
	cCheckC
	nCounts
)

var countNames = [nCounts]string{
	"cycle", "skipped", "skips", "ops", "payload_bytes",
	"eng.rx_pkts", "eng.rx_dropped", "eng.retrans", "eng.flows_rejected",
	"mem.hits", "mem.miss", "mem.swap_reqs",
	"sched.routed", "sched.coalesced", "sched.migrations", "sched.backpressure",
	"fpc.stalls", "fpc.processed",
	"pcie.busy_dev_a", "pcie.busy_dev_b", "pcie.busy_host_a", "pcie.busy_host_b", "pcie.tlps",
	"lib.cmds", "lib.post_failures",
	"link.bytes_ab", "link.bytes_ba", "link.pkts", "link.dropped",
	"stack.events", "stack.rx_pkts", "stack.kicks", "stack.resizes", "stack.rejected", "stack.opened", "refused",
	"check.a", "check.b", "check.c",
}

type counts [nCounts]int64

func (c counts) sub(o counts) counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// gauges holds the maxima of instantaneous values sampled on the
// window's fixed simulated grid.
type gauges struct {
	rxQueueMax     int64 // engine RX parser queue depth
	pendingMax     int64 // scheduler events pending
	pcieBacklogMax int64 // PCIe serialization backlog, cycles
}

// raise keeps the larger of *into and v.
func raise(into *int64, v int64) {
	if v > *into {
		*into = v
	}
}
