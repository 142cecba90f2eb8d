package engine

import "f4t/internal/flow"

// FlowGen returns the generation of a flow ID's slot.
func (e *Engine) FlowGen(id flow.ID) uint32 { return e.flows[id].gen }
