package conformance

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dmtp"
	"repro/internal/faults"
	"repro/internal/live"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// FlowSpec is one flow in a multi-flow scenario: an experiment number and
// how many messages it sends.
type FlowSpec struct {
	Experiment uint32
	Messages   int
}

// MultiFlowScenario is a substrate-independent many-flow conformance run:
// several experiments interleave round-robin through one relay, with a
// scripted egress-loss plan indexed over the merged egress packet order.
// It is the differential witness for the sharded flow-table relay: each
// flow's transcript must be byte-identical across substrates, and a fault
// seeded onto one flow must leave every other flow's transcript clean.
type MultiFlowScenario struct {
	// Flows are the participating flows; sends interleave round-robin
	// (flow 0 msg 1, flow 1 msg 1, …, flow 0 msg 2, …), Interval apart.
	Flows []FlowSpec
	// Interval is the virtual spacing between consecutive sends.
	Interval time.Duration
	// DropEgress lists 1-based egress data-packet indices (all flows
	// merged, forwards and retransmissions in send order) dropped on the
	// relay→receiver leg. With round-robin interleaving, egress index k
	// belongs to flow (k-1) mod len(Flows) — so a single index targets
	// exactly one flow.
	DropEgress []uint64
	// CrashAt, when nonzero, crash+restarts the relay at this virtual
	// instant: the stash colds and the flow table clears on both
	// substrates.
	CrashAt time.Duration
	// Shards is the relay/buffer shard count on both substrates.
	Shards int

	// NAK tuning, applied identically to both receivers.
	NAKDelay    time.Duration
	NAKRetry    time.Duration
	NAKRetryMax time.Duration
	MaxNAKs     int
	Seed        int64
	FaultSeed   int64
}

// MultiFlowResult is one substrate's output: a transcript per experiment,
// plus the receiver's global counters. Per-flow Totals hold only the
// flow-splittable counters (Delivered, Recovered, NAKsSent, Lost), all
// derived from the transcript entries; Received and Duplicates are
// receiver-global and live in Global.
type MultiFlowResult struct {
	Flows  map[uint32]*Transcript
	Global Totals
}

// DiffMultiFlow compares two multi-flow results flow by flow (and the
// global totals); an empty slice means the substrates conformed.
func DiffMultiFlow(sim, live *MultiFlowResult) []string {
	var out []string
	var exps []uint32
	for exp := range sim.Flows {
		exps = append(exps, exp)
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i] < exps[j] })
	for _, exp := range exps {
		lt, ok := live.Flows[exp]
		if !ok {
			out = append(out, fmt.Sprintf("flow %d: present on sim only", exp))
			continue
		}
		for _, d := range Diff(sim.Flows[exp], lt) {
			out = append(out, fmt.Sprintf("flow %d: %s", exp, d))
		}
	}
	for exp := range live.Flows {
		if _, ok := sim.Flows[exp]; !ok {
			out = append(out, fmt.Sprintf("flow %d: present on live only", exp))
		}
	}
	if sim.Global != live.Global {
		out = append(out, fmt.Sprintf("global totals: sim %+v, live %+v", sim.Global, live.Global))
	}
	return out
}

// multiFlowSends flattens the scenario into the merged round-robin send
// schedule: entry k (0-based) is flow k%n, message k/n+1, sent at
// (k+1)*Interval.
type flowSend struct {
	flow int // index into sc.Flows
	msg  int // 1-based per-flow message index
	at   time.Duration
}

func multiFlowSends(sc MultiFlowScenario) []flowSend {
	var out []flowSend
	k := 0
	for round := 1; ; round++ {
		progressed := false
		for fi, fl := range sc.Flows {
			if round > fl.Messages {
				continue
			}
			k++
			out = append(out, flowSend{flow: fi, msg: round, at: time.Duration(k) * sc.Interval})
			progressed = true
		}
		if !progressed {
			return out
		}
	}
}

// flowPayload is the deterministic message body for flow exp's i-th
// message, identical on both substrates.
func flowPayload(exp uint32, i int) []byte {
	return []byte(fmt.Sprintf("conf-%d-%03d", exp, i))
}

// finishFlowTotals derives each flow's splittable totals from its
// transcript entries.
func finishFlowTotals(flows map[uint32]*Transcript) {
	for _, tr := range flows {
		recovered := uint64(0)
		for _, d := range tr.Delivered {
			if d.Recovered {
				recovered++
			}
		}
		tr.Totals = Totals{
			Delivered: uint64(len(tr.Delivered)),
			Recovered: recovered,
			NAKsSent:  uint64(len(tr.NAKs)),
			Lost:      uint64(len(tr.Gaps)),
		}
	}
}

// RunSimMultiFlow executes the scenario on the simulator substrate: one
// sender node per flow feeds a sharded BufferNode whose flow table routes
// every flow to a single receiver, with the scripted drop plan on the
// shared egress link.
func RunSimMultiFlow(sc MultiFlowScenario) *MultiFlowResult {
	nw := netsim.New(1)
	plan := faults.New(faults.Spec{Seed: sc.FaultSeed, DropPackets: sc.DropEgress})
	res := &MultiFlowResult{Flows: make(map[uint32]*Transcript)}
	for _, fl := range sc.Flows {
		res.Flows[fl.Experiment] = &Transcript{}
	}
	trOf := func(exp wire.ExperimentID) *Transcript {
		return res.Flows[uint32(exp>>8)]
	}

	dtnAddr := wire.AddrFrom(10, 0, 1, 1, 7000)
	recvAddr := wire.AddrFrom(10, 0, 2, 1, 7000)

	recv := core.NewReceiver(nw, "recv", recvAddr, core.ReceiverConfig{
		NAKDelay:    sc.NAKDelay,
		NAKRetry:    sc.NAKRetry,
		NAKRetryMax: sc.NAKRetryMax,
		MaxNAKs:     sc.MaxNAKs,
		Seed:        sc.Seed,
		OnMessage: func(m core.Message) {
			if tr := trOf(m.Experiment); tr != nil {
				tr.Delivered = append(tr.Delivered, Delivery{Seq: m.Seq, Recovered: m.Recovered})
			}
		},
		OnNAK: func(exp wire.ExperimentID, rs []wire.SeqRange) {
			if tr := trOf(exp); tr != nil {
				tr.NAKs = append(tr.NAKs, FormatRanges(rs))
			}
		},
		OnGap: func(exp wire.ExperimentID, seq uint64) {
			if tr := trOf(exp); tr != nil {
				tr.Gaps = append(tr.Gaps, seq)
			}
		},
	})
	dtn := core.NewBufferNode(nw, "dtn", dtnAddr, core.BufferConfig{
		UpgradeFrom: core.ModeBare.ConfigID,
		Upgrade:     confMode,
		Forward:     recvAddr,
		ForwardPort: len(sc.Flows),
		MaxAge:      time.Hour,
		Shards:      sc.Shards,
	})
	senders := make([]*core.Sender, len(sc.Flows))
	for i, fl := range sc.Flows {
		addr := wire.AddrFrom(10, 0, 0, byte(i+1), 4000)
		senders[i] = core.NewSender(nw, fmt.Sprintf("sensor%d", i), addr, core.SenderConfig{
			Experiment: fl.Experiment,
			Dst:        dtnAddr,
			Mode:       core.ModeBare,
		})
	}

	// Sender links occupy DTN ports 0..n-1 in flow order; the faulted
	// egress link is port n (= BufferConfig.ForwardPort above).
	for _, snd := range senders {
		nw.Connect(snd.Node(), dtn.Node(),
			netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: time.Microsecond})
	}
	nw.ConnectAsym(dtn.Node(), recv.Node(),
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: time.Microsecond, Fault: faults.SimFault(plan)},
		netsim.LinkConfig{RateBps: netsim.Gbps(100), Delay: time.Microsecond})

	for _, fs := range multiFlowSends(sc) {
		fs := fs
		nw.Loop().At(sim.Time(fs.at), func() {
			senders[fs.flow].Emit(flowPayload(sc.Flows[fs.flow].Experiment, fs.msg), 0)
		})
	}
	if sc.CrashAt > 0 {
		nw.Loop().At(sim.Time(sc.CrashAt), func() {
			dtn.Crash()
			dtn.Restart()
		})
	}
	nw.Loop().Run()

	finishFlowTotals(res.Flows)
	st := recv.Stats
	res.Global = Totals{
		Received:   st.Received,
		Delivered:  st.Delivered,
		Duplicates: st.Duplicates,
		NAKsSent:   st.NAKsSent,
		Recovered:  st.Recovered,
		Lost:       st.Lost,
	}
	return res
}

// RunLiveMultiFlow executes the scenario on the live substrate: one
// live.Sender per flow (each a distinct source port, hence a distinct
// flow-table entry) through one sharded relay to one receiver, with the
// shared FakeClock lockstep driver settling socket round trips between
// virtual events exactly as the single-flow RunLive does.
func RunLiveMultiFlow(sc MultiFlowScenario) (*MultiFlowResult, error) {
	fc := dmtp.NewFakeClock(0)
	plan := faults.New(faults.Spec{Seed: sc.FaultSeed, DropPackets: sc.DropEgress})
	res := &MultiFlowResult{Flows: make(map[uint32]*Transcript)}
	for _, fl := range sc.Flows {
		res.Flows[fl.Experiment] = &Transcript{}
	}
	var mu sync.Mutex
	dispatched := uint64(0)
	trOf := func(exp wire.ExperimentID) *Transcript {
		return res.Flows[uint32(exp>>8)]
	}

	recv, err := live.NewReceiver(live.ReceiverConfig{
		Listen:      "127.0.0.1:0",
		NAKDelay:    sc.NAKDelay,
		NAKRetry:    sc.NAKRetry,
		NAKRetryMax: sc.NAKRetryMax,
		MaxNAKs:     sc.MaxNAKs,
		Seed:        sc.Seed,
		Clock:       fc,
		OnMessage: func(m live.Message) {
			mu.Lock()
			dispatched++
			if tr := trOf(m.Experiment); tr != nil {
				tr.Delivered = append(tr.Delivered, Delivery{Seq: m.Seq, Recovered: m.Recovered})
			}
			mu.Unlock()
		},
		OnNAK: func(exp wire.ExperimentID, rs []wire.SeqRange) {
			mu.Lock()
			if tr := trOf(exp); tr != nil {
				tr.NAKs = append(tr.NAKs, FormatRanges(rs))
			}
			mu.Unlock()
		},
		OnGap: func(exp wire.ExperimentID, seq uint64) {
			mu.Lock()
			if tr := trOf(exp); tr != nil {
				tr.Gaps = append(tr.Gaps, seq)
			}
			mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	defer recv.Close()

	relay, err := live.NewRelay(live.RelayConfig{
		Listen:  "127.0.0.1:0",
		Forward: recv.Addr(),
		MaxAge:  time.Hour,
		Clock:   fc,
		Shards:  sc.Shards,
		Wrap:    func(c live.UDPConn) live.UDPConn { return faults.WrapConn(c, plan) },
	})
	if err != nil {
		return nil, err
	}
	defer relay.Close()

	senders := make([]*live.Sender, len(sc.Flows))
	for i, fl := range sc.Flows {
		snd, err := live.NewSenderWithConfig(live.SenderConfig{
			Dst:        relay.Addr(),
			Experiment: fl.Experiment,
		})
		if err != nil {
			return nil, err
		}
		defer snd.Close()
		senders[i] = snd
	}

	settle := func() error {
		return waitLive(func() bool {
			if relay.Stats().NAKs != recv.Stats().NAKsSent {
				return false
			}
			rs := relay.Stats()
			inj := plan.Injected()
			expected := rs.Forwarded + rs.Retransmits + inj.Duplicate - inj.Drops()
			mu.Lock()
			d := dispatched
			mu.Unlock()
			return d+recv.Stats().Duplicates == expected
		})
	}
	drainUntil := func(target int64) error {
		for {
			at, ok := fc.NextAt()
			if !ok || at > target {
				return nil
			}
			fc.AdvanceTo(at)
			if err := settle(); err != nil {
				return err
			}
		}
	}

	type event struct {
		at    time.Duration
		send  flowSend
		crash bool
	}
	var events []event
	for _, fs := range multiFlowSends(sc) {
		events = append(events, event{at: fs.at, send: fs})
	}
	if sc.CrashAt > 0 {
		events = append(events, event{at: sc.CrashAt, crash: true})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	sent := uint64(0)
	for _, ev := range events {
		if err := drainUntil(int64(ev.at)); err != nil {
			return nil, err
		}
		fc.AdvanceTo(int64(ev.at))
		if ev.crash {
			relay.Crash()
			if err := relay.Restart(); err != nil {
				return nil, err
			}
			continue
		}
		fl := sc.Flows[ev.send.flow]
		if err := senders[ev.send.flow].Send(flowPayload(fl.Experiment, ev.send.msg), 0); err != nil {
			return nil, err
		}
		sent++
		if err := waitLive(func() bool { return relay.Stats().Upgraded == sent }); err != nil {
			return nil, fmt.Errorf("flow %d send %d never reached the relay: %w", fl.Experiment, ev.send.msg, err)
		}
		if err := settle(); err != nil {
			return nil, err
		}
	}

	for i := 0; ; i++ {
		at, ok := fc.NextAt()
		if !ok {
			break
		}
		if i > 1000 {
			return nil, fmt.Errorf("engine timers never quiesced (next at %d)", at)
		}
		fc.AdvanceTo(at)
		if err := settle(); err != nil {
			return nil, err
		}
	}
	if n := recv.OutstandingGaps(); n != 0 {
		return nil, fmt.Errorf("%d gaps outstanding at quiescence", n)
	}

	finishFlowTotals(res.Flows)
	st := recv.Stats()
	res.Global = Totals{
		Received:   st.Received,
		Delivered:  st.Delivered,
		Duplicates: st.Duplicates,
		NAKsSent:   st.NAKsSent,
		Recovered:  st.Recovered,
		Lost:       st.PermanentLoss,
	}
	return res, nil
}
