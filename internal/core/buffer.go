package core

import (
	"fmt"
	"time"

	"repro/internal/dmtp"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// BufferConfig configures a first-line DTN buffer node (DTN 1 in Fig. 4).
type BufferConfig struct {
	// UpgradeFrom is the config ID of arriving sensor traffic (usually
	// ModeBare's).
	UpgradeFrom uint8
	// Upgrade is the mode installed for the WAN crossing (usually ModeWAN).
	Upgrade Mode
	// Forward is the downstream destination (DTN 2).
	Forward wire.Addr
	// ForwardPort is the egress port toward the WAN; other ports face the
	// DAQ network.
	ForwardPort int
	// MaxAge is the age budget installed into upgraded packets.
	MaxAge time.Duration
	// DeadlineBudget is the delivery deadline installed into upgraded
	// packets; zero leaves the deadline unset even if the mode is timely.
	DeadlineBudget time.Duration
	// DeadlineNotify is where on-path elements report late packets
	// (normally the sensor or an operations host).
	DeadlineNotify wire.Addr
	// BackPressureSink is where on-path elements send congestion signals
	// (normally the sensor).
	BackPressureSink wire.Addr
	// CapacityBytes bounds the retransmission buffer; oldest packets are
	// evicted first. Zero means 64 MiB.
	CapacityBytes int
	// Cipher, when non-nil and the upgrade mode includes FeatEncrypted,
	// encrypts payloads at the DTN (Req 5; the sensor stays cheap).
	Cipher   Cipher
	KeyEpoch uint32
	// Routes overrides egress for specific destinations (e.g. control
	// traffic heading back into the DAQ network); everything else leaves
	// via ForwardPort.
	Routes map[wire.Addr]int
	// StashTransit makes the node buffer sequenced data packets passing
	// through it (not just ones it upgrades) and repoint their
	// retransmission-buffer field to itself — the paper's "more 'recent'
	// (lower RTT) retransmission buffer" (§1, §5.1): downstream receivers
	// then recover from this closer node instead of the WAN entrance.
	StashTransit bool
	// Shards is the number of buffer shards experiments are partitioned
	// across (zero means 1). The simulator loop is single-threaded, so
	// sharding here buys no parallelism — it exists so conformance can
	// diff the sharded partitioning logic against the live relay.
	Shards int
	// Recorder, when non-nil, receives flight-recorder events (reshape
	// plus the buffer engine's nak-served / nak-miss / evict / trim /
	// crash / restart) stamped with virtual time. Nil disables recording.
	Recorder *metrics.FlightRecorder
	// JournalDir, when non-empty, enables the stash write-ahead journal
	// (internal/journal): every stash mutation is logged, Crash flushes
	// the log, and Restart replays it so post-crash NAKs meet a warm
	// buffer instead of the cold-start write-off path. The directory is
	// created if missing; an unusable directory panics — on the simulator
	// substrate a bad journal path is a harness configuration error, and
	// NewBufferNode has no error return to thread it through.
	JournalDir string
	// JournalSync is the journal fsync policy (journal.SyncBatch when
	// empty, or SyncNone / SyncAlways).
	JournalSync string
}

// BufferStats are cumulative buffer-node counters: the relay engine's
// stash, NAK-service, trim, upgrade and forward counters plus the
// adapter's transit and crash-drop counters.
type BufferStats struct {
	dmtp.RelayStats
	Repointed   uint64 // transit packets re-homed to this buffer
	DroppedDown uint64 // frames discarded while crashed
}

// BufferNode is the first-line DTN: it upgrades sensor streams into the
// WAN mode, assigns sequence numbers, buffers sequenced packets, and serves
// retransmissions on NAK — the paper's "closer source" that shortens
// recovery RTT relative to retransmitting from the instrument (§5.1).
// The flow table, upgrade step, stash, NAK service, cumulative trim,
// crash/restart and journal live in dmtp.RelayEngine; this type adapts it
// to the simulator substrate: frame dispatch, transit adoption and
// routing. Every flow routes to Forward via ForwardPort.
type BufferNode struct {
	cfg  BufferConfig
	node *netsim.Node
	nw   *netsim.Network
	eng  *dmtp.RelayEngine[struct{}]

	repointed   uint64
	droppedDown uint64
}

// NewBufferNode creates a buffer node and registers it on the network.
func NewBufferNode(nw *netsim.Network, name string, addr wire.Addr, cfg BufferConfig) *BufferNode {
	b := NewBufferHandler(nw, cfg)
	b.node = nw.AddNode(name, addr, b)
	return b
}

// NewBufferHandler creates a buffer node without registering a node, for
// callers that wrap it in a decorating handler (e.g. discovery.Wrap); the
// node is bound via Attach when the wrapper is registered.
func NewBufferHandler(nw *netsim.Network, cfg BufferConfig) *BufferNode {
	b := &BufferNode{cfg: cfg, nw: nw}
	// Retransmissions leave via the WAN egress; the datapath clones
	// stash entries before framing them (the engine keeps ownership).
	b.eng = dmtp.NewRelayEngine(
		nodeDatapath{node: func() *netsim.Node { return b.node }, nw: nw, port: cfg.ForwardPort},
		dmtp.BufferConfig{CapacityBytes: cfg.CapacityBytes, Recorder: cfg.Recorder, Clock: loopClock{nw}},
		cfg.Shards, 0,
		func(wire.Addr, wire.ExperimentID) (struct{}, bool) { return struct{}{}, true })
	if cfg.JournalDir != "" {
		if err := b.eng.OpenJournal(cfg.JournalDir, cfg.JournalSync); err != nil {
			panic(fmt.Sprintf("core: opening stash journal: %v", err))
		}
	}
	return b
}

// Stats returns the node's cumulative counters.
func (b *BufferNode) Stats() BufferStats {
	return BufferStats{RelayStats: b.eng.Stats(), Repointed: b.repointed, DroppedDown: b.droppedDown}
}

// JournalStats returns the journal counters (zero without a journal).
func (b *BufferNode) JournalStats() journal.Stats { return b.eng.JournalStats() }

// JournalRecoveries returns the most recent per-shard journal recovery
// (the startup scan, or the last crash replay); nil without a journal.
// The campaign's journal-balance oracle inspects these.
func (b *BufferNode) JournalRecoveries() []*journal.Recovered { return b.eng.JournalRecoveries() }

// CloseJournal stops the journal writers and closes the segment files.
// The node itself has no other lifecycle on the simulator substrate;
// journaled harnesses (campaign durable cells, tests) must call this
// when the run drains, or the writer goroutines outlive the cell.
func (b *BufferNode) CloseJournal() error { return b.eng.Close() }

// Node returns the buffer's network node.
func (b *BufferNode) Node() *netsim.Node { return b.node }

// Addr returns the buffer's address (what upgraded headers point at).
func (b *BufferNode) Addr() wire.Addr { return b.node.Addr }

// BufferedBytes returns current buffer occupancy across all shards.
func (b *BufferNode) BufferedBytes() int { return b.eng.BufferedBytes() }

// SeqOf returns the last sequence number this node assigned to exp (zero
// if it never sequenced the experiment). Campaign oracles use it to prove
// sequence state never bleeds across flows.
func (b *BufferNode) SeqOf(exp wire.ExperimentID) uint64 { return b.eng.Shard(exp).SeqOf(exp) }

// FlowStats returns the node's flow-table counters.
func (b *BufferNode) FlowStats() dmtp.FlowStats { return b.eng.FlowStats() }

// RegisterMetrics publishes the node's metric set on reg: the relay
// engine's shared set (names match the live relay by construction) plus
// the adapter's transit and crash-drop counters. The simulator loop is
// single-threaded: sample the registry from loop context or after the
// run has drained.
func (b *BufferNode) RegisterMetrics(reg *metrics.Registry) {
	b.eng.RegisterMetrics(reg, b.cfg.Upgrade.ConfigID)
	reg.RegisterFunc(metrics.MetricRelayRepointed, func() int64 { return int64(b.repointed) })
	reg.RegisterFunc(metrics.MetricRelayDroppedDown, func() int64 { return int64(b.droppedDown) })
}

// Attach implements netsim.Handler.
func (b *BufferNode) Attach(n *netsim.Node) { b.node = n }

// Crash models the DTN process dying: from now until Restart every
// arriving frame — data, NAKs, ACKs, transit — is discarded, the
// retransmission buffer is lost and the flow table is cleared (see
// dmtp.RelayEngine.Crash). With JournalDir set the write-ahead log
// survives and Restart replays it.
func (b *BufferNode) Crash() { b.eng.Crash() }

// Restart brings a crashed node back into service: cold without a
// journal; with one, warm — the log is replayed first, so the crash
// costs zero messages.
func (b *BufferNode) Restart() {
	if err := b.eng.Restart(nil); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
}

// IsDown reports whether the node is crashed.
func (b *BufferNode) IsDown() bool { return b.eng.Down() }

// HandleFrame implements netsim.Handler.
func (b *BufferNode) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	if b.eng.Down() {
		b.droppedDown++
		return
	}
	b.handle(f)
	b.eng.Sweep(int64(b.nw.Now()))
}

func (b *BufferNode) handle(f *netsim.Frame) {
	v := wire.View(f.Data)
	if _, err := v.Check(); err != nil {
		return
	}
	if v.IsControl() {
		b.handleControl(f, v)
		return
	}
	if f.Dst != b.node.Addr && !f.Dst.IsZero() {
		// Transit data traffic: optionally adopt it (stash + repoint),
		// then route onward.
		if b.cfg.StashTransit {
			b.adoptTransit(v)
		}
		b.forwardRaw(f)
		return
	}
	// Register the flow before spending a sequence number. Packets
	// already upgraded (or in an unknown mode) pass through unmodified.
	exp := v.Experiment()
	sh := b.eng.Shard(exp)
	fl := sh.Lookup(f.Src, exp, int64(b.nw.Now()))
	if fl == nil {
		return
	}
	out := f.Data
	if v.ConfigID() == b.cfg.UpgradeFrom {
		if out = b.upgrade(sh, fl, v); out == nil {
			return
		}
	}
	b.send(b.cfg.ForwardPort, b.cfg.Forward, out)
	sh.CountForwarded(fl, 1)
}

// upgrade runs the engine's upgrade step on a sensor packet, seals the
// payload when the mode encrypts, and stashes the packet when it is
// sequenced. It returns the bytes to forward, nil if the reshape failed.
func (b *BufferNode) upgrade(sh *dmtp.RelayShard[struct{}], fl *dmtp.Flow[struct{}], v wire.View) []byte {
	// FeatTraced rides along: an upgrade must not strip an in-band trace.
	want := b.cfg.Upgrade.Features | v.Features()&wire.FeatTraced
	up, seq, err := sh.Upgrade(fl, v, b.cfg.Upgrade.ConfigID, want, int64(b.nw.Now()), dmtp.Upgrade{
		Self:             b.node.Addr,
		MaxAge:           b.cfg.MaxAge,
		DeadlineBudget:   b.cfg.DeadlineBudget,
		DeadlineNotify:   b.cfg.DeadlineNotify,
		BackPressureSink: b.cfg.BackPressureSink,
	})
	if err != nil {
		return nil
	}
	if want.Has(wire.FeatEncrypted) && b.cfg.Cipher != nil {
		nonce := uint32(seq)
		off, _ := want.ExtOffset(wire.FeatEncrypted)
		ext := up[wire.CoreHeaderLen+off:]
		ext[0], ext[1], ext[2], ext[3] = byte(b.cfg.KeyEpoch>>24), byte(b.cfg.KeyEpoch>>16), byte(b.cfg.KeyEpoch>>8), byte(b.cfg.KeyEpoch)
		ext[4], ext[5], ext[6], ext[7] = byte(nonce>>24), byte(nonce>>16), byte(nonce>>8), byte(nonce)
		b.cfg.Cipher.Seal(b.cfg.KeyEpoch, nonce, up.Payload())
	}
	if seq == 0 {
		return up
	}
	// The stash keeps the pooled packet and the frame carries a copy:
	// downstream elements mutate headers in flight, and the buffer must
	// retransmit the packet as it left this node.
	out := up.Clone()
	sh.Stash(up.Experiment(), seq, up)
	return out
}

// adoptTransit buffers a sequenced transit packet and rewrites its
// retransmission pointer to this node, so downstream NAKs travel a shorter
// round trip. Retransmissions served by an upstream buffer pass through
// here again and are simply re-adopted, which is harmless (same bytes,
// same key).
func (b *BufferNode) adoptTransit(v wire.View) {
	feats := v.Features()
	if !feats.Has(wire.FeatSequenced) || !feats.Has(wire.FeatReliable) {
		return
	}
	seq, err := v.Seq()
	if err != nil || seq == 0 {
		return
	}
	if err := v.SetRetransmitBuffer(b.node.Addr); err != nil {
		return
	}
	exp := v.Experiment()
	b.eng.Shard(exp).Stash(exp, seq, v.CloneInto(wire.GetBuffer(len(v))))
	b.repointed++
}

func (b *BufferNode) handleControl(f *netsim.Frame, v wire.View) {
	if f.Dst != b.node.Addr {
		b.forwardRaw(f)
		return
	}
	switch v.ConfigID() {
	case wire.ConfigNAK:
		nak, err := wire.DecodeNAK(f.Data)
		if err != nil {
			return
		}
		b.eng.Shard(nak.Experiment).ServeNAK(nak)
	case wire.ConfigAck:
		ack, err := wire.DecodeAck(f.Data)
		if err != nil {
			return
		}
		b.eng.Shard(ack.Experiment).Trim(ack.Experiment, ack.CumulativeSeq)
	}
}

func (b *BufferNode) send(port int, dst wire.Addr, data []byte) {
	b.node.Port(port).Send(&netsim.Frame{
		Src:  b.node.Addr,
		Dst:  dst,
		Data: data,
		Born: b.nw.Now(),
	})
}

// forwardRaw routes a transit frame by destination.
func (b *BufferNode) forwardRaw(f *netsim.Frame) {
	port := b.cfg.ForwardPort
	if p, ok := b.cfg.Routes[f.Dst]; ok {
		port = p
	}
	b.node.Port(port).Send(f)
}
