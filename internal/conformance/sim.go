package conformance

import (
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

// confMode mirrors the live relay's upgrade exactly (ConfigID 1 with the
// sequenced/reliable/age/timely/timestamped feature set and no
// back-pressure extension), so both substrates emit byte-compatible
// upgraded headers.
var confMode = core.Mode{
	Name:     "conf",
	ConfigID: 1,
	Features: wire.FeatSequenced | wire.FeatReliable | wire.FeatAgeTracked |
		wire.FeatTimely | wire.FeatTimestamped,
}

// RunSim executes the scenario on the simulator substrate: the scripted
// drop plan rides the buffer→receiver link as a netsim fault, sends are
// scheduled on the virtual timeline, the optional crash+restart fires at
// its exact virtual instant, and the loop runs to quiescence.
func RunSim(sc Scenario) *Transcript {
	nw := netsim.New(1)
	plan := faults.New(faults.Spec{
		Seed:        sc.FaultSeed,
		DropPackets: sc.DropEgress,
		DupPackets:  sc.DupEgress,
		DropWindows: sc.FlapEgress,
	})
	tr := &Transcript{}
	tracer := tracespan.NewCollector(0)

	sensorAddr := wire.AddrFrom(10, 0, 0, 1, 4000)
	dtnAddr := wire.AddrFrom(10, 0, 1, 1, 7000)
	recvAddr := wire.AddrFrom(10, 0, 2, 1, 7000)

	recv := core.NewReceiver(nw, "recv", recvAddr, core.ReceiverConfig{
		NAKDelay:    sc.NAKDelay,
		NAKRetry:    sc.NAKRetry,
		NAKRetryMax: sc.NAKRetryMax,
		MaxNAKs:     sc.MaxNAKs,
		Seed:        sc.Seed,
		OnMessage: func(m core.Message) {
			tr.Delivered = append(tr.Delivered, Delivery{Seq: m.Seq, Recovered: m.Recovered})
		},
		OnNAK: func(_ wire.ExperimentID, rs []wire.SeqRange) {
			tr.NAKs = append(tr.NAKs, FormatRanges(rs))
		},
		OnGap: func(_ wire.ExperimentID, seq uint64) {
			tr.Gaps = append(tr.Gaps, seq)
		},
		Tracer: tracer,
	})
	dtn := core.NewBufferNode(nw, "dtn", dtnAddr, core.BufferConfig{
		UpgradeFrom: core.ModeBare.ConfigID,
		Upgrade:     confMode,
		Forward:     recvAddr,
		ForwardPort: 1,
		MaxAge:      time.Hour,
	})
	snd := core.NewSender(nw, "sensor", sensorAddr, core.SenderConfig{
		Experiment:  sc.Experiment,
		Dst:         dtnAddr,
		Mode:        core.ModeBare,
		TraceSample: sc.TraceSample,
	})

	nw.Connect(snd.Node(), dtn.Node(),
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: time.Microsecond})
	nw.ConnectAsym(dtn.Node(), recv.Node(),
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: time.Microsecond, Fault: faults.SimFault(plan)},
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: time.Microsecond})

	for i := 1; i <= sc.Messages; i++ {
		i := i
		nw.Loop().At(sim.Time(time.Duration(i)*sc.Interval), func() {
			snd.Emit(payload(i), 0)
		})
	}
	if sc.CrashAt > 0 {
		nw.Loop().At(sim.Time(sc.CrashAt), func() {
			dtn.Crash()
			dtn.Restart()
		})
	}
	nw.Loop().Run()

	tr.Spans = tracer.Structures()
	st := recv.Stats
	tr.Totals = Totals{
		Received:   st.Received,
		Delivered:  st.Delivered,
		Duplicates: st.Duplicates,
		NAKsSent:   st.NAKsSent,
		Recovered:  st.Recovered,
		Lost:       st.Lost,
	}
	return tr
}
