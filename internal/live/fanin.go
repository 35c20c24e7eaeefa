package live

// Fan-in throughput harness: N concurrent sender flows through one
// sharded relay to M receivers, all on real loopback sockets. This is the
// many-flow scale-out's headline measurement — aggregate relay throughput
// plus per-flow fairness — shared by BenchmarkFanIn and cmd/benchtab's f1
// section so both report the same numbers from the same code path.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Fixed shape of a fan-in run; the relay shard count is GOMAXPROCS.
const (
	// fanInExpBase is the first flow's experiment number; flow i uses
	// fanInExpBase+i.
	fanInExpBase = 9000
	// fanInReceivers is how many downstream receivers the flows are
	// spread across round-robin.
	fanInReceivers = 2
	// fanInPayloadLen is the message body size.
	fanInPayloadLen = 256
	// fanInBatchSize is each sender's flush-ring depth, the kernel-batch
	// sweet spot.
	fanInBatchSize = 32
	// fanInDrainWait bounds the post-send drain wait.
	fanInDrainWait = 5 * time.Second
)

// FanInConfig parameterises one fan-in run.
type FanInConfig struct {
	// Flows is the concurrent sender count (default 8).
	Flows int
	// Messages is the per-flow message count (default 10000).
	Messages int
}

func (c FanInConfig) withDefaults() FanInConfig {
	if c.Flows <= 0 {
		c.Flows = 8
	}
	if c.Messages <= 0 {
		c.Messages = 10000
	}
	return c
}

// FanInFlow is one flow's end-to-end accounting.
type FanInFlow struct {
	Experiment uint32 `json:"experiment"`
	Sent       uint64 `json:"sent"`
	// Upgraded/Forwarded are the relay flow table's per-flow service
	// counters; Delivered is counted at the flow's receiver.
	Upgraded  uint64 `json:"upgraded"`
	Forwarded uint64 `json:"forwarded"`
	Delivered uint64 `json:"delivered"`
}

// FanInResult is one fan-in run's measurement.
type FanInResult struct {
	Flows     int         `json:"flows"`
	Receivers int         `json:"receivers"`
	Shards    int         `json:"shards"`
	PerFlow   []FanInFlow `json:"per_flow"`

	Sent      uint64 `json:"sent"`
	Upgraded  uint64 `json:"upgraded"`
	Delivered uint64 `json:"delivered"`
	// SendElapsedNs spans first send to last sender flush; ElapsedNs spans
	// first send to the relay's last observed upgrade.
	SendElapsedNs int64 `json:"send_elapsed_ns"`
	ElapsedNs     int64 `json:"elapsed_ns"`
	// AggregateMsgsPerSec is the offered aggregate rate (sends over the
	// send span) — the headline number, measured the same way as
	// BenchmarkLiveLoopback's msgs/s so the two are comparable.
	// RelayMsgsPerSec is relay upgrades over the full send+drain span, and
	// DeliveredPerSec is receiver deliveries over that same span: under
	// overload UDP sheds on the ingest socket, so the three rates bracket
	// what the element sustained rather than pretending one number does.
	AggregateMsgsPerSec float64 `json:"aggregate_msgs_per_sec"`
	RelayMsgsPerSec     float64 `json:"relay_msgs_per_sec"`
	DeliveredPerSec     float64 `json:"delivered_per_sec"`
	// MinFlowUpgraded/MaxFlowUpgraded are the per-flow service extremes;
	// JainFairness is Jain's index over per-flow upgrades (1.0 = every
	// flow served equally).
	MinFlowUpgraded uint64  `json:"min_flow_upgraded"`
	MaxFlowUpgraded uint64  `json:"max_flow_upgraded"`
	JainFairness    float64 `json:"jain_fairness"`
}

// RunFanIn executes one fan-in run: cfg.Flows senders blast their
// messages concurrently through a sharded relay whose resolver spreads
// the flows across fanInReceivers receivers; the run then drains until
// the relay's upgrade counter goes quiet.
func RunFanIn(cfg FanInConfig) (*FanInResult, error) {
	cfg = cfg.withDefaults()
	shards := runtime.GOMAXPROCS(0)

	perFlowDelivered := make([]atomic.Uint64, cfg.Flows)
	count := func(m Message) {
		if i := int(uint32(m.Experiment)>>8) - fanInExpBase; i >= 0 && i < cfg.Flows {
			perFlowDelivered[i].Add(1)
		}
	}

	recvs := make([]*Receiver, fanInReceivers)
	recvAddrs := make([]string, fanInReceivers)
	for i := range recvs {
		r, err := NewReceiver(ReceiverConfig{
			Listen: "127.0.0.1:0",
			// Loopback overload sheds packets with no reordering, so
			// waiting longer cannot fill a gap: keep recovery cheap.
			NAKDelay:  50 * time.Millisecond,
			MaxNAKs:   1,
			OnMessage: count,
		})
		if err != nil {
			return nil, err
		}
		defer r.Close()
		recvs[i] = r
		recvAddrs[i] = r.Addr()
	}

	relay, err := NewRelay(RelayConfig{
		Listen: "127.0.0.1:0",
		Resolver: func(_ wire.Addr, exp wire.ExperimentID) string {
			i := int(uint32(exp)>>8) - fanInExpBase
			if i < 0 || i >= cfg.Flows {
				return ""
			}
			return recvAddrs[i%fanInReceivers]
		},
		MaxAge: time.Hour,
		Shards: shards,
	})
	if err != nil {
		return nil, err
	}
	defer relay.Close()

	senders := make([]*Sender, cfg.Flows)
	for i := range senders {
		s, err := NewSenderWithConfig(SenderConfig{
			Dst:        relay.Addr(),
			Experiment: uint32(fanInExpBase + i),
			BatchSize:  fanInBatchSize,
		})
		if err != nil {
			return nil, err
		}
		defer s.Close()
		senders[i] = s
	}

	payload := make([]byte, fanInPayloadLen)
	for i := range payload {
		payload[i] = byte(i)
	}

	// Send phase: the flows are interleaved in fixed chunks from one
	// goroutine. With per-flow goroutines on a box with few Ps the flows
	// degrade into sequential whole-flow bursts — the earliest flows
	// capture the relay's socket buffer outright and later flows are
	// silenced — whereas chunked interleaving keeps every flow
	// concurrently in flight at the relay and spreads overload drops
	// evenly. The offered rate is measured the same way as
	// BenchmarkLiveLoopbackBatched's msgs/s: send cost only.
	chunk := 8 * fanInBatchSize
	start := time.Now()
	for base := 0; base < cfg.Messages; base += chunk {
		n := chunk
		if rest := cfg.Messages - base; rest < n {
			n = rest
		}
		for _, s := range senders {
			for k := 0; k < n; k++ {
				if err := s.Send(payload, 0); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, s := range senders {
		if err := s.Close(); err != nil { // flush the tail of the batch ring
			return nil, err
		}
	}
	sendElapsed := time.Since(start)

	// Drain: the relay keeps ingesting from its socket buffer after the
	// senders finish; the span ends at the last observed upgrade.
	lastUpgraded := relay.Stats().Upgraded
	lastChange := time.Now()
	deadline := lastChange.Add(fanInDrainWait)
	for time.Now().Before(deadline) {
		if u := relay.Stats().Upgraded; u != lastUpgraded {
			lastUpgraded, lastChange = u, time.Now()
			continue
		}
		if time.Since(lastChange) > 100*time.Millisecond {
			break
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := lastChange.Sub(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}

	if sendElapsed <= 0 {
		sendElapsed = time.Nanosecond
	}

	res := &FanInResult{
		Flows:         cfg.Flows,
		Receivers:     fanInReceivers,
		Shards:        shards,
		PerFlow:       make([]FanInFlow, cfg.Flows),
		Upgraded:      lastUpgraded,
		SendElapsedNs: sendElapsed.Nanoseconds(),
		ElapsedNs:     elapsed.Nanoseconds(),
	}
	for i, s := range senders {
		res.PerFlow[i] = FanInFlow{
			Experiment: uint32(fanInExpBase + i),
			Sent:       s.Sent(),
			Delivered:  perFlowDelivered[i].Load(),
		}
		res.Sent += res.PerFlow[i].Sent
		res.Delivered += res.PerFlow[i].Delivered
	}
	for _, fi := range relay.Flows() {
		if i := int(uint32(fi.Experiment)>>8) - fanInExpBase; i >= 0 && i < cfg.Flows {
			res.PerFlow[i].Upgraded = fi.Upgraded
			res.PerFlow[i].Forwarded = fi.Forwarded
		}
	}
	res.AggregateMsgsPerSec = float64(res.Sent) / sendElapsed.Seconds()
	res.RelayMsgsPerSec = float64(res.Upgraded) / elapsed.Seconds()
	res.DeliveredPerSec = float64(res.Delivered) / elapsed.Seconds()

	var sum, sumSq float64
	res.MinFlowUpgraded = ^uint64(0)
	for _, f := range res.PerFlow {
		if f.Upgraded < res.MinFlowUpgraded {
			res.MinFlowUpgraded = f.Upgraded
		}
		if f.Upgraded > res.MaxFlowUpgraded {
			res.MaxFlowUpgraded = f.Upgraded
		}
		x := float64(f.Upgraded)
		sum += x
		sumSq += x * x
	}
	if sumSq > 0 {
		res.JainFairness = sum * sum / (float64(len(res.PerFlow)) * sumSq)
	}
	return res, nil
}

// Table renders the result as a readable text table (the benchtab form).
func (r *FanInResult) Table() string {
	s := fmt.Sprintf("fan-in: %d flows -> 1 relay (%d shards) -> %d receivers\n",
		r.Flows, r.Shards, r.Receivers)
	s += fmt.Sprintf("aggregate: %.0f msgs/s offered (%d sent in %.1f ms)\n",
		r.AggregateMsgsPerSec, r.Sent, float64(r.SendElapsedNs)/1e6)
	s += fmt.Sprintf("relay: %.0f msgs/s serviced, %.0f msgs/s delivered (%d upgraded, %d delivered in %.1f ms)\n",
		r.RelayMsgsPerSec, r.DeliveredPerSec, r.Upgraded, r.Delivered, float64(r.ElapsedNs)/1e6)
	s += fmt.Sprintf("fairness: min %d / max %d per flow, Jain %.4f\n",
		r.MinFlowUpgraded, r.MaxFlowUpgraded, r.JainFairness)
	s += fmt.Sprintf("%-6s %-10s %8s %9s %10s %10s\n", "flow", "experiment", "sent", "upgraded", "forwarded", "delivered")
	for i, f := range r.PerFlow {
		s += fmt.Sprintf("%-6d %-10d %8d %9d %10d %10d\n",
			i, f.Experiment, f.Sent, f.Upgraded, f.Forwarded, f.Delivered)
	}
	return s
}
