package faults

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// SimFault adapts a Plan to the simulator's link fault hook: assign the
// returned func to netsim.LinkConfig.Fault on the link (direction) under
// attack. The plan's elapsed clock is the network's virtual time, so
// scripted flap windows land at exact simulated instants.
func SimFault(p *Plan) netsim.FaultFunc {
	return func(now sim.Time, f *netsim.Frame) netsim.FaultDecision {
		d := p.Decide(time.Duration(now))
		return netsim.FaultDecision{
			Drop:       d.Drop,
			Duplicate:  d.Duplicate,
			CorruptBit: d.CorruptBit,
			ExtraDelay: d.Delay,
		}
	}
}
