package live

// The live relay: the software network element / first-line DTN on the
// UDP substrate, a thin adapter over dmtp.RelayEngine. The engine owns
// the shards, the flow table, the upgrade step and the stash journal;
// this file keeps the UDP plumbing:
//
//   - socket bind and rebind, and the batch receive loop, which
//     validates each packet once, partitions the burst by experiment and
//     handles it one shard at a time under that shard's lock — two shards
//     never contend, and per-experiment packet order is preserved exactly;
//
//   - per-flow forward queues: a flow's route is the downstream address
//     resolved at registration (the configured default, or whatever
//     RelayConfig.Resolver returns) plus the packets queued for it this
//     burst, flushed with one batched WriteBatchTo per flow.

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dmtp"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// RelayConfig configures the software network element.
type RelayConfig struct {
	// Listen is the UDP address to bind, e.g. "127.0.0.1:17580".
	Listen string
	// Forward is where upgraded packets are sent by default (the
	// receiver). A flow's destination is resolved when the flow is
	// registered; Resolver, when set, takes precedence. Empty is
	// allowed only with a Resolver.
	Forward string
	// Resolver, when non-nil, maps a new flow (source address +
	// experiment ID) to its downstream address. Returning "" rejects
	// the flow. Called once per flow registration, not per packet.
	Resolver func(src wire.Addr, exp wire.ExperimentID) string
	// Shards is the number of buffer shards (and shard locks) the
	// relay partitions experiments across. Zero means 1 — the
	// single-flow relay's exact behavior. Idle flows expire after
	// dmtp.FlowTTL.
	Shards int
	// MaxFlows bounds the flow table across all shards; registrations
	// beyond it are rejected (counted in dmtp.relay.flows.rejected).
	// Zero means unlimited.
	MaxFlows int
	// MaxAge is the age budget installed into upgraded packets.
	MaxAge time.Duration
	// DeadlineBudget is the delivery budget; zero disables deadlines.
	DeadlineBudget time.Duration
	// CapacityBytes bounds the retransmission buffer (default 64 MiB),
	// split evenly across shards.
	CapacityBytes int
	// DropEveryN, when > 0, deliberately drops every Nth forwarded data
	// packet — fault injection so loopback demos exercise recovery.
	// internal/faults supersedes this for scripted schedules.
	DropEveryN int
	// Wrap, when non-nil, decorates the socket (fault middleware); it is
	// re-applied to the fresh socket on Restart.
	Wrap func(UDPConn) UDPConn
	// Clock overrides the relay clock (origin timestamps, deadlines);
	// nil means the wall clock. The conformance suite injects a
	// dmtp.FakeClock here.
	Clock dmtp.Clock
	// Recorder, when non-nil, receives flight-recorder events (reshape,
	// injected-drop, plus the buffer engine's nak-served / nak-miss /
	// evict / trim / crash / restart). Nil disables flight recording.
	Recorder *metrics.FlightRecorder
	// TraceSample, when positive, originates a sampled in-band trace on
	// every TraceSample'th upgraded packet that does not already carry one
	// — adding FeatTraced is just another config rewrite at the upgrade
	// boundary. Traces arriving from the sender are preserved regardless.
	TraceSample int
	// JournalDir, when non-empty, enables the stash write-ahead journal
	// (internal/journal): every stash insert, eviction, and trim is
	// logged to per-shard segment files, and Restart replays the log —
	// rebuilding the retransmission stash and sequence floors — before
	// rebinding, so a crashed relay resumes NAK service with zero message
	// loss. The directory is created if missing. Empty keeps today's
	// in-memory-only behavior exactly.
	JournalDir string
	// JournalSync is the journal fsync policy: journal.SyncBatch when
	// empty (one group-committed fsync per writer drain), or SyncNone /
	// SyncAlways.
	JournalSync string
	// Blackbox, when non-nil, is invoked at the end of Crash(), after the
	// receive loop has drained and the journal (if any) has flushed — the
	// point where the daemon's final state is stable. The hook persists a
	// crash black box (flight-recorder dump plus final metrics snapshot;
	// see internal/blackbox); reason names the trigger ("crash").
	Blackbox func(reason string)
}

// RelayStats are cumulative relay counters, summed across shards.
type RelayStats struct {
	Upgraded      uint64
	Forwarded     uint64
	InjectedDrops uint64
	NAKs          uint64
	Retransmits   uint64
	Misses        uint64
	Trimmed       uint64 // stash entries released after cumulative ACK
	Crashes       uint64 // one per shard per crash
	TxErrors      uint64 // packets dropped by failed fire-and-forget writes
}

// FlowInfo describes one registered flow — the /flows endpoint and
// SIGUSR1 dump shape.
type FlowInfo struct {
	Src        wire.Addr
	Experiment wire.ExperimentID
	Dst        string
	Shard      int
	Upgraded   uint64
	Forwarded  uint64
	// IdleNs is how long ago the flow last saw a packet, on the relay
	// clock.
	IdleNs int64
}

// route is a flow's downstream address plus this burst's queued forwards,
// owned by the flow's shard.
type route struct {
	dst *net.UDPAddr
	// fwdq queues this burst's forward-leg packets for one batched
	// WriteBatchTo; queued marks membership in the shard's dirty list.
	fwdq   [][]byte
	queued bool
}

type relayFlow = dmtp.Flow[route]
type relayShard = dmtp.RelayShard[route]

// shardQueue is one shard's forwarding state, guarded by that engine
// shard's lock.
type shardQueue struct {
	dirty    []*relayFlow // flows with queued forwards this burst
	nq       int          // total queued packets across dirty flows
	nak      wire.NAK     // scratch decode target, reusing Ranges capacity
	upgradeN uint64       // upgraded packets, driving boundary trace sampling
}

// pendPkt is one ingested packet awaiting its shard's handling pass.
type pendPkt struct {
	pkt []byte
	src wire.Addr
}

// upgradeFeats is the mode-1 feature set the relay upgrades mode-0
// packets into.
const upgradeFeats = wire.FeatSequenced | wire.FeatReliable | wire.FeatAgeTracked | wire.FeatTimely | wire.FeatTimestamped

// Relay is the live-path network element + buffer: dmtp.RelayEngine
// adapted to UDP sockets, with pooled stash buffers released back to
// wire's shared pool.
type Relay struct {
	cfg   RelayConfig
	clock dmtp.Clock

	// mu guards lifecycle state only: the socket, bind address, closed
	// flag. Datapath state is under the engine's shard locks.
	mu     sync.Mutex
	conn   UDPConn
	bound  *net.UDPAddr // concrete bind address, reused by Restart
	self   wire.Addr
	closed bool
	wg     sync.WaitGroup

	eng *dmtp.RelayEngine[route]
	// queues[i] is shard i's forwarding state, under eng.At(i)'s lock.
	queues []shardQueue

	// fwdAddr is the default downstream for flows the Resolver does not
	// cover; SetForward swaps it. Registered flows keep the destination
	// they resolved — only registration (first packet, or the first
	// packet after a crash or idle expiry) reads this.
	fwdAddr atomic.Pointer[net.UDPAddr]

	injectedDrops atomic.Uint64
	txErrN        atomic.Uint64
	txErr         atomic.Pointer[metrics.Counter]

	// bc is the batch datapath over the current socket (rebuilt by
	// bind on Restart).
	bc     *batchConn
	bstats batchStats
}

// BatchStats returns the relay's kernel-batch datapath counters.
func (r *Relay) BatchStats() BatchStats { return r.bstats.snapshot() }

// BatchCaps reports which kernel batching features the relay's current
// socket probed to.
func (r *Relay) BatchCaps() BatchCaps {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bc == nil {
		return BatchCaps{}
	}
	return r.bc.Caps()
}

// countTxErr records n packets dropped by fire-and-forget writes.
func (r *Relay) countTxErr(n int) {
	if n <= 0 {
		return
	}
	r.txErrN.Add(uint64(n))
	if c := r.txErr.Load(); c != nil {
		c.Add(uint64(n))
	}
}

// NewRelay binds the relay and starts its receive loop.
func NewRelay(cfg RelayConfig) (*Relay, error) {
	if cfg.Clock == nil {
		cfg.Clock = dmtp.WallClock{}
	}
	r := &Relay{cfg: cfg, clock: cfg.Clock}
	if cfg.Forward != "" {
		fwd, err := net.ResolveUDPAddr("udp4", cfg.Forward)
		if err != nil {
			return nil, fmt.Errorf("live: resolve forward %q: %w", cfg.Forward, err)
		}
		r.fwdAddr.Store(fwd)
	} else if cfg.Resolver == nil {
		return nil, fmt.Errorf("live: relay needs a Forward address or a Resolver")
	}
	laddr, err := net.ResolveUDPAddr("udp4", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("live: resolve listen %q: %w", cfg.Listen, err)
	}

	r.eng = dmtp.NewRelayEngine(relayDatapath{r}, dmtp.BufferConfig{
		CapacityBytes: cfg.CapacityBytes,
		Release:       func(b []byte) { releaseBuffer(b) },
		Recorder:      cfg.Recorder,
		Clock:         cfg.Clock,
	}, cfg.Shards, cfg.MaxFlows, r.resolve)
	r.queues = make([]shardQueue, r.eng.NumShards())
	if cfg.JournalDir != "" {
		// A journal left by a previous relay process rebuilds the stash
		// before the socket opens — recovered first, then serving.
		if err := r.eng.OpenJournal(cfg.JournalDir, cfg.JournalSync); err != nil {
			return nil, fmt.Errorf("live: opening stash journal: %w", err)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.bind(laddr); err != nil {
		r.eng.Close()
		return nil, err
	}
	return r, nil
}

// resolve picks a new flow's downstream address: the Resolver's answer,
// or the current default forward. The engine calls it once per flow
// registration, not per packet.
func (r *Relay) resolve(src wire.Addr, exp wire.ExperimentID) (route, bool) {
	if r.cfg.Resolver == nil {
		dst := r.fwdAddr.Load()
		return route{dst: dst}, dst != nil
	}
	s := r.cfg.Resolver(src, exp)
	if s == "" {
		return route{}, false
	}
	dst, err := net.ResolveUDPAddr("udp4", s)
	if err != nil {
		return route{}, false
	}
	return route{dst: dst}, true
}

// JournalStats returns the journal counters (zero without a journal).
func (r *Relay) JournalStats() journal.Stats { return r.eng.JournalStats() }

// JournalRecoveries returns the most recent per-shard journal recovery —
// the startup scan, or the last crash replay. Nil without a journal.
func (r *Relay) JournalRecoveries() []*journal.Recovered { return r.eng.JournalRecoveries() }

// bind opens the socket at laddr and starts the receive loop. Callers are
// the constructor or Restart (holding r.mu).
func (r *Relay) bind(laddr *net.UDPAddr) error {
	conn, err := net.ListenUDP("udp4", laddr)
	if err != nil {
		return fmt.Errorf("live: listen %v: %w", laddr, err)
	}
	// DAQ senders burst; a deep receive buffer is the userspace analogue
	// of the DTN tuning the paper describes.
	conn.SetReadBuffer(8 << 20)
	self, err := toWireAddr(conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		conn.Close()
		return err
	}
	if self.IP == ([4]byte{0, 0, 0, 0}) {
		// Bound to the wildcard: advertise loopback so NAKs can reach us
		// in single-host deployments.
		self.IP = [4]byte{127, 0, 0, 1}
	}
	var c UDPConn = conn
	if r.cfg.Wrap != nil {
		c = r.cfg.Wrap(c)
	}
	r.conn = c
	r.bound = conn.LocalAddr().(*net.UDPAddr)
	r.self = self
	// The batch datapath reads bursts with recvmmsg (GRO enabled) and
	// flushes each flow's forward queue with sendmmsg/GSO where the
	// kernel allows; wrapped sockets fall back to the portable loop so
	// fault middleware still sees every packet.
	bc := newBatchConn(c, &r.bstats, true)
	r.bc = bc
	r.wg.Add(1)
	go r.loop(bc)
	return nil
}

// Addr returns the relay's bound address as a string.
func (r *Relay) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bound.String()
}

// WireAddr returns the relay's protocol address (what headers point at).
func (r *Relay) WireAddr() wire.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.self
}

// NumShards returns the shard count.
func (r *Relay) NumShards() int { return r.eng.NumShards() }

// SetForward re-points the default downstream. Only flow registration
// reads it — already-registered flows keep their resolved destination
// until they expire or the relay crashes, which is why Crash clears the
// flow table: Restart must re-resolve, never revive a stale address.
func (r *Relay) SetForward(addr string) error {
	fwd, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return fmt.Errorf("live: resolve forward %q: %w", addr, err)
	}
	r.fwdAddr.Store(fwd)
	return nil
}

// Stats returns a snapshot of the counters: the engine's, summed across
// shards, plus the adapter's injected drops and write errors.
func (r *Relay) Stats() RelayStats {
	st := r.eng.Stats()
	return RelayStats{
		Upgraded:      st.Upgraded,
		Forwarded:     st.Forwarded,
		InjectedDrops: r.injectedDrops.Load(),
		NAKs:          st.NAKs,
		Retransmits:   st.Retransmits,
		Misses:        st.Misses,
		Trimmed:       st.Trimmed,
		Crashes:       st.Crashes,
		TxErrors:      r.txErrN.Load(),
	}
}

// FlowStats returns the flow-table counters (dmtp.relay.flows.*).
func (r *Relay) FlowStats() dmtp.FlowStats { return r.eng.FlowStats() }

// Flows snapshots the flow table across all shards, ordered by shard,
// then source, then experiment — the SIGUSR1 dump and /flows endpoint.
func (r *Relay) Flows() []FlowInfo {
	now := r.clock.Now()
	var out []FlowInfo
	r.eng.EachFlow(func(shard int, f *relayFlow) {
		out = append(out, FlowInfo{
			Src:        f.Src,
			Experiment: f.Exp,
			Dst:        f.Route.dst.String(),
			Shard:      shard,
			Upgraded:   f.Upgraded,
			Forwarded:  f.Forwarded,
			IdleNs:     now - f.LastSeen,
		})
	})
	sort.Slice(out, func(a, b int) bool {
		if out[a].Shard != out[b].Shard {
			return out[a].Shard < out[b].Shard
		}
		if out[a].Src != out[b].Src {
			return out[a].Src.String() < out[b].Src.String()
		}
		return out[a].Experiment < out[b].Experiment
	})
	return out
}

// BufferedBytes returns current retransmission-buffer occupancy, summed
// across shards.
func (r *Relay) BufferedBytes() int { return r.eng.BufferedBytes() }

// RegisterMetrics publishes the relay's metric set on reg: the engine's
// shared set (names match the simulator by construction), plus the
// adapter's injected-drop counter, batch datapath counters and write
// errors. Sampled values are read under the shard locks only at scrape
// time.
func (r *Relay) RegisterMetrics(reg *metrics.Registry) {
	// The live relay reshapes every mode-0 packet into config 1.
	r.eng.RegisterMetrics(reg, 1)
	reg.RegisterFunc(metrics.MetricRelayInjectedDrops, func() int64 { return int64(r.injectedDrops.Load()) })
	r.bstats.install(reg)
	r.txErr.Store(reg.Counter(metrics.MetricLiveTxErrors))
}

// relayDatapath serves engine output (NAK retransmissions) over the
// relay's socket. Socket writes do not retain the packet, so the engine's
// pooled stash entries go out without copying. Called under the owning
// shard's lock, always from the receive-loop goroutine — which also
// makes r.conn stable for the duration (rebinds only happen after the
// loop exits).
type relayDatapath struct{ r *Relay }

func (d relayDatapath) SendControl(dst wire.Addr, pkt []byte) {
	if _, err := d.r.conn.WriteToUDP(pkt, toUDPAddr(dst)); err != nil {
		d.r.countTxErr(1)
	}
}

func (d relayDatapath) SendData(dst wire.Addr, pkt []byte) {
	if _, err := d.r.conn.WriteToUDP(pkt, toUDPAddr(dst)); err != nil {
		d.r.countTxErr(1)
	}
}

// Crash models the relay process dying: the engine releases every
// shard's stash, clears the flow table and flushes the journal (see
// dmtp.RelayEngine.Crash), then the socket closes abruptly. No forward
// queue can still reference a released stash buffer: the receive loop
// flushes a shard's queues before it lets go of the shard lock.
func (r *Relay) Crash() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	conn := r.conn
	r.mu.Unlock()
	if r.eng.Down() {
		return
	}
	r.eng.Crash()
	conn.Close()
	r.wg.Wait()
	if r.cfg.Blackbox != nil {
		r.cfg.Blackbox("crash")
	}
}

// Restart rebinds the crashed relay on its original address with an
// empty flow table and resumes forwarding. With a journal, the log is
// replayed before the socket reopens, so NAK service resumes warm. It is
// an error to Restart a relay that has not crashed or is closed.
func (r *Relay) Restart() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("live: relay closed")
	}
	if !r.eng.Down() {
		return fmt.Errorf("live: relay not crashed")
	}
	return r.eng.Restart(func() error { return r.bind(r.bound) })
}

// Ready reports whether the relay can serve traffic, with a reason when
// it cannot — the /healthz?probe=ready contract. A relay is not ready
// from Crash() until Restart() has finished: the journal replay and the
// socket rebind both happen inside that window, so a journaled restart
// reports not-ready while the stash is still being rebuilt.
func (r *Relay) Ready() (bool, string) {
	if r.eng.Down() {
		if r.eng.Journaled() {
			return false, "relay crashed; journal replay pending until restart"
		}
		return false, "relay crashed; awaiting restart"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false, "relay closed"
	}
	if r.conn == nil {
		return false, "listen socket not bound"
	}
	return true, ""
}

// Down reports whether the relay is crashed and awaiting Restart.
func (r *Relay) Down() bool { return r.eng.Down() }

// Close stops the relay.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conn := r.conn
	r.mu.Unlock()
	var err error
	if !r.eng.Down() && conn != nil {
		err = conn.Close()
	}
	r.wg.Wait()
	if jerr := r.eng.Close(); err == nil {
		err = jerr
	}
	return err
}

// loop is the receive loop: read a burst, validate and partition it by
// shard, then handle and flush each touched shard under its own lock,
// and finally let the engine sweep idle flows. The pend slices are owned
// by this goroutine; ring buffers stay valid until the next ReadBatch,
// which is after every queued forward has been flushed.
func (r *Relay) loop(bc *batchConn) {
	defer r.wg.Done()
	defer bc.Close()
	pend := make([][]pendPkt, len(r.queues))
	touched := make([]int, 0, len(r.queues))
	for {
		n, err := bc.ReadBatch()
		if err != nil {
			r.mu.Lock()
			stop := r.closed
			r.mu.Unlock()
			if stop || r.eng.Down() {
				return
			}
			continue
		}
		now := r.clock.Now()
		touched = touched[:0]
		bc.PacketsSrc(n, func(pkt []byte, src wire.Addr) {
			// The one validity check on the ingress path: the shard pass
			// handles the same unchanged ring bytes.
			v := wire.View(pkt)
			if _, err := v.Check(); err != nil {
				return
			}
			// Control packets carry the experiment in the core header,
			// so NAKs and ACKs route to the shard owning their stash.
			si := r.eng.ShardIndex(v.Experiment())
			if len(pend[si]) == 0 {
				touched = append(touched, si)
			}
			pend[si] = append(pend[si], pendPkt{pkt: pkt, src: src})
		})
		for _, si := range touched {
			sh, q := r.eng.At(si), &r.queues[si]
			sh.Lock()
			for _, pp := range pend[si] {
				r.handleLocked(sh, q, bc, pp.pkt, pp.src, now)
			}
			r.flushLocked(sh, q, bc)
			sh.Unlock()
			pend[si] = pend[si][:0]
		}
		r.eng.Sweep(now)
	}
}

// queue appends pkt to f's forward queue and marks the flow dirty.
func (q *shardQueue) queue(f *relayFlow, pkt []byte) {
	if !f.Route.queued {
		f.Route.queued = true
		q.dirty = append(q.dirty, f)
	}
	f.Route.fwdq = append(f.Route.fwdq, pkt)
	q.nq++
}

// flushLocked drains every dirty flow's queued forwards, one batched
// write per flow. Failed tails are dropped (loss recovery is the
// protocol's job) and counted in dmtp.live.tx.errors.
func (r *Relay) flushLocked(sh *relayShard, q *shardQueue, bc *batchConn) {
	for _, f := range q.dirty {
		rt := &f.Route
		if n := len(rt.fwdq); n > 0 {
			sent, err := bc.WriteBatchTo(rt.fwdq, rt.dst)
			sh.CountForwarded(f, sent)
			if err != nil {
				r.countTxErr(n - sent)
			}
			rt.fwdq = rt.fwdq[:0]
		}
		rt.queued = false
	}
	q.dirty = q.dirty[:0]
	q.nq = 0
}

// handleLocked processes one validated ingress packet under its shard's
// lock, queueing any forward on its flow (flushed before the lock is
// released).
func (r *Relay) handleLocked(sh *relayShard, q *shardQueue, bc *batchConn, pkt []byte, src wire.Addr, now int64) {
	v := wire.View(pkt)
	if v.IsControl() {
		r.handleControlLocked(sh, q, bc, pkt, v)
		return
	}
	if sh.Down() {
		// Crash() swept this shard mid-burst; model the process death —
		// nothing is handled until Restart.
		return
	}
	exp := v.Experiment()
	f := sh.Lookup(src, exp, now)
	if f == nil {
		return // flow table full, or no route for this flow
	}
	if v.ConfigID() != 0 {
		// Already upgraded: forward unmodified. The queued slice points
		// into the batch ring, which is stable until the next ReadBatch —
		// after this burst's flush.
		q.queue(f, pkt)
		return
	}
	// An in-band trace rides along through the upgrade; the relay can also
	// originate one at the boundary (add FeatTraced = config rewrite).
	feats := upgradeFeats | v.Features()&wire.FeatTraced
	q.upgradeN++
	originate := r.cfg.TraceSample > 0 && !feats.Has(wire.FeatTraced) &&
		q.upgradeN%uint64(r.cfg.TraceSample) == 0
	if originate {
		feats |= wire.FeatTraced
	}
	up, seq, err := sh.Upgrade(f, v, 1, feats, now, dmtp.Upgrade{
		Self:           r.self,
		MaxAge:         r.cfg.MaxAge,
		DeadlineBudget: r.cfg.DeadlineBudget,
	})
	if err != nil {
		return
	}
	if originate {
		_ = up.SetTrace(wire.TraceExt{
			TraceID: uint32(q.upgradeN),
			Flags:   wire.TraceSampledFlag,
		})
		_ = up.AppendHopStamp(wire.TraceReshapeHop(1), now)
	}
	// The stash takes ownership of the pooled buffer; it is released on
	// eviction, cumulative-ACK trim, or crash. Queued forwards reference
	// stash-owned buffers, so if this stash would evict (and release)
	// entries, the shard's queues must drain first — an evicted buffer
	// could be one queued earlier in this burst.
	if q.nq > 0 && sh.BufferedBytes()+len(up) > sh.CapacityBytes() {
		r.flushLocked(sh, q, bc)
	}
	sh.Stash(exp, seq, up)
	if r.cfg.DropEveryN > 0 && seq%uint64(r.cfg.DropEveryN) == 0 {
		r.injectedDrops.Add(1)
		r.cfg.Recorder.RecordAt(now, metrics.EvInjectedDrop, uint64(exp), seq, 0)
		return
	}
	q.queue(f, up)
}

// handleControlLocked serves NAKs and ACKs under the shard lock. The
// shard's queued forwards are flushed first: retransmissions must not
// overtake data queued earlier in the burst, and an ACK trim releases
// stash buffers the queues may still reference.
func (r *Relay) handleControlLocked(sh *relayShard, q *shardQueue, bc *batchConn, pkt []byte, v wire.View) {
	r.flushLocked(sh, q, bc)
	switch v.ConfigID() {
	case wire.ConfigNAK:
		// Decode into the shard's scratch NAK, reusing its Ranges capacity.
		nak := &q.nak
		if err := nak.DecodeFrom(pkt); err != nil {
			return
		}
		sh.ServeNAK(nak)
	case wire.ConfigAck:
		ack, err := wire.DecodeAck(pkt)
		if err != nil {
			return
		}
		sh.Trim(ack.Experiment, ack.CumulativeSeq)
	}
}
