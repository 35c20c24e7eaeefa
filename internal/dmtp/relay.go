package dmtp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// FlowTTL is how long a relay flow may stay idle before the flow table
// forgets it; the flow's next packet registers it afresh and re-resolves
// its route. Expiry is strict: a flow idle for exactly FlowTTL survives.
const FlowTTL = 60 * time.Second

// RelayEngine is the reshaping relay — the paper's DTN buffer, which
// upgrades a sensor stream, stashes it and serves NAKs — shared by the
// simulator's core.BufferNode and the live UDP live.Relay. It owns every
// decision the two substrates must make identically:
//
//   - the shards: a ShardedBuffer whose BufferEngines split the stash
//     capacity evenly and keep their own counters, summed by Stats;
//   - the flow table: a flow is (source address, experiment ID),
//     registered on its first packet with the route the adapter's resolve
//     function picks once, bounded by maxFlows, expired on the engine
//     Clock after FlowTTL idle, and cleared by Crash;
//   - the upgrade step: reshape into a pooled buffer, sequence, stamp,
//     count, stash;
//   - the stash journal: open and restore, flush on crash, replay and
//     restore on restart, close;
//   - metric registration under the canonical names.
//
// The adapters keep substrate plumbing: frame dispatch and routing on the
// simulator; sockets, batching and per-flow forward queues on UDP. R is
// the adapter's per-flow route — the live relay keeps its resolved UDP
// destination and forward queue there, while the simulator, which routes
// every flow alike, uses struct{}.
//
// Locking: every RelayShard carries a mutex. Per-shard methods (Lookup,
// Upgrade, CountForwarded and the embedded BufferEngine's) need the
// caller to serialize access to that shard — the live relay holds the
// shard lock, the simulator's single event loop needs none. Engine-wide
// methods take each shard's lock themselves, so callers must not hold
// one.
type RelayEngine[R any] struct {
	sb       *ShardedBuffer
	shards   []*RelayShard[R]
	rec      *metrics.FlightRecorder
	maxFlows int
	resolve  func(src wire.Addr, exp wire.ExperimentID) (R, bool)
	// jset is the per-shard stash journal (nil without OpenJournal).
	jset *journal.Set

	// lastSweep is owned by Sweep's caller, the adapter's ingest path.
	lastSweep int64

	active                    atomic.Int64
	opened, expired, rejected atomic.Uint64
	// reshapeC counts upgrades; installed by RegisterMetrics, nil (and
	// skipped) until then.
	reshapeC atomic.Pointer[metrics.Counter]
}

// RelayShard is one partition of a RelayEngine: the BufferEngine owning
// its experiments' sequencing and stash, the flows whose experiments hash
// to it, and the mutex the live relay serializes both under.
type RelayShard[R any] struct {
	sync.Mutex
	*BufferEngine

	e     *RelayEngine[R]
	flows map[flowKey]*Flow[R]
	// upgraded and forwarded outlive the flows that counted them.
	upgraded, forwarded uint64
}

// flowKey identifies a flow: who is sending, and which experiment.
type flowKey struct {
	src wire.Addr
	exp wire.ExperimentID
}

// Flow is one registered flow, owned by its shard.
type Flow[R any] struct {
	Src wire.Addr
	Exp wire.ExperimentID
	// Route is what the resolve function picked at registration.
	Route R
	// LastSeen is the engine-clock time of the flow's latest packet.
	LastSeen  int64
	Upgraded  uint64
	Forwarded uint64
}

// RelayStats are a relay's cumulative counters: the shards' stash,
// NAK-service and trim counters summed (Crashes counts one per shard per
// crash), plus the upgrade and forward counts.
type RelayStats struct {
	BufferStats
	Upgraded  uint64
	Forwarded uint64
}

// NewRelayEngine builds a relay of shards partitions (< 1 means 1) whose
// NAK retransmissions leave through dp. buf is the shard template: its
// CapacityBytes bounds the whole relay and is split evenly across shards;
// Release, Recorder and Clock apply to every shard; Stats and Journal are
// the engine's own and ignored. A nil Release returns stash entries to
// wire's shared pool. maxFlows bounds the flow table (zero: unlimited);
// resolve picks a new flow's route, or refuses the flow by returning
// false.
func NewRelayEngine[R any](dp Datapath, buf BufferConfig, shards, maxFlows int, resolve func(src wire.Addr, exp wire.ExperimentID) (R, bool)) *RelayEngine[R] {
	if shards < 1 {
		shards = 1
	}
	if buf.CapacityBytes > 0 && shards > 1 {
		buf.CapacityBytes = max(buf.CapacityBytes/shards, 1)
	}
	if buf.Release == nil {
		buf.Release = wire.ReleaseBuffer
	}
	if buf.Clock == nil {
		buf.Clock = WallClock{}
	}
	buf.Stats, buf.Journal = nil, nil
	e := &RelayEngine[R]{
		shards:    make([]*RelayShard[R], shards),
		rec:       buf.Recorder,
		maxFlows:  maxFlows,
		resolve:   resolve,
		lastSweep: buf.Clock.Now(),
	}
	e.sb = NewShardedBuffer(shards, func(i int) *BufferEngine {
		e.shards[i] = &RelayShard[R]{
			BufferEngine: NewBufferEngine(dp, buf),
			e:            e,
			flows:        make(map[flowKey]*Flow[R]),
		}
		return e.shards[i].BufferEngine
	})
	return e
}

// NumShards returns the shard count.
func (e *RelayEngine[R]) NumShards() int { return len(e.shards) }

// ShardIndex maps an experiment to the index of the shard owning it.
func (e *RelayEngine[R]) ShardIndex(exp wire.ExperimentID) int { return e.sb.ShardIndex(exp) }

// Shard returns the shard owning exp.
func (e *RelayEngine[R]) Shard(exp wire.ExperimentID) *RelayShard[R] {
	return e.shards[e.sb.ShardIndex(exp)]
}

// At returns the i'th shard.
func (e *RelayEngine[R]) At(i int) *RelayShard[R] { return e.shards[i] }

// Lookup returns the flow for (src, exp), registering it on first sight,
// and refreshes its idle clock to now. It returns nil when registration
// is refused: the table already holds maxFlows flows, or resolve rejects
// the flow. Call it before spending a sequence number, so a refused flow
// consumes no sequencing state.
func (sh *RelayShard[R]) Lookup(src wire.Addr, exp wire.ExperimentID, now int64) *Flow[R] {
	k := flowKey{src: src, exp: exp}
	if f, ok := sh.flows[k]; ok {
		f.LastSeen = now
		return f
	}
	e := sh.e
	if e.maxFlows > 0 && e.active.Load() >= int64(e.maxFlows) {
		e.rejected.Add(1)
		return nil
	}
	route, ok := e.resolve(src, exp)
	if !ok {
		e.rejected.Add(1)
		return nil
	}
	f := &Flow[R]{Src: src, Exp: exp, Route: route, LastSeen: now}
	sh.flows[k] = f
	e.active.Add(1)
	e.opened.Add(1)
	return f
}

// Upgrade is the relay's mode change for one packet of flow f: v is
// reshaped into (configID, feats) inside a pooled buffer, sequenced when
// feats include FeatSequenced (seq is 0 otherwise), stamped with u, given
// the reshape hop stamp when it carries a sampled trace, and counted —
// flow and shard upgrade counters, the reshape counter, an EvReshape
// event. The caller owns the packet until it passes it to Stash.
func (sh *RelayShard[R]) Upgrade(f *Flow[R], v wire.View, configID uint8, feats wire.Features, now int64, u Upgrade) (wire.View, uint64, error) {
	extLen, err := feats.ExtLen()
	if err != nil {
		return nil, 0, err
	}
	up, err := v.ReshapeInto(wire.GetBuffer(len(v)+extLen), configID, feats)
	if err != nil {
		return nil, 0, err
	}
	exp := up.Experiment()
	var seq uint64
	if feats.Has(wire.FeatSequenced) {
		seq = sh.NextSeq(exp)
	}
	StampUpgrade(up, seq, now, u)
	if up.TraceSampled() {
		_ = up.AppendHopStamp(wire.TraceReshapeHop(configID), now)
	}
	f.Upgraded++
	sh.upgraded++
	if c := sh.e.reshapeC.Load(); c != nil {
		c.Inc()
	}
	sh.e.rec.RecordAt(now, metrics.EvReshape, uint64(exp), seq, uint64(configID))
	return up, seq, nil
}

// CountForwarded records n packets of flow f sent downstream.
func (sh *RelayShard[R]) CountForwarded(f *Flow[R], n int) {
	f.Forwarded += uint64(n)
	sh.forwarded += uint64(n)
}

// restore replays one shard's journal recovery: surviving entries are
// copied into pooled buffers and re-stashed without re-journaling, then
// sequence counters are raised to the journal's floors so the relay never
// reuses a sequence number it already assigned.
func (sh *RelayShard[R]) restore(rec *journal.Recovered) {
	for _, ent := range rec.Entries {
		pkt := wire.GetBuffer(len(ent.Payload))
		copy(pkt, ent.Payload)
		sh.RestoreStash(ent.Exp, ent.Seq, pkt)
	}
	for exp, seq := range rec.Seqs {
		sh.RestoreSeq(exp, seq)
	}
}

// Sweep expires flows idle for longer than FlowTTL. It does the work at
// most once every FlowTTL/2 of engine time. Adapters call it after
// handling a packet or burst, with every forward queue flushed, so a flow
// returning after a long idle is refreshed by its packet first rather
// than expired and re-opened.
func (e *RelayEngine[R]) Sweep(now int64) {
	if now-e.lastSweep < int64(FlowTTL)/2 {
		return
	}
	e.lastSweep = now
	for _, sh := range e.shards {
		sh.Lock()
		for k, f := range sh.flows {
			if now-f.LastSeen > int64(FlowTTL) {
				delete(sh.flows, k)
				e.active.Add(-1)
				e.expired.Add(1)
			}
		}
		sh.Unlock()
	}
}

// EachFlow calls fn for every registered flow, shard by shard, under the
// shard's lock.
func (e *RelayEngine[R]) EachFlow(fn func(shard int, f *Flow[R])) {
	for i, sh := range e.shards {
		sh.Lock()
		for _, f := range sh.flows {
			fn(i, f)
		}
		sh.Unlock()
	}
}

// FlowStats returns the flow-table counters (dmtp.relay.flows.*).
func (e *RelayEngine[R]) FlowStats() FlowStats {
	return FlowStats{
		Active:   uint64(max(e.active.Load(), 0)),
		Opened:   e.opened.Load(),
		Expired:  e.expired.Load(),
		Rejected: e.rejected.Load(),
	}
}

// lockAll takes every shard lock, in index order, for a consistent
// engine-wide read.
func (e *RelayEngine[R]) lockAll() {
	for _, sh := range e.shards {
		sh.Lock()
	}
}

func (e *RelayEngine[R]) unlockAll() {
	for _, sh := range e.shards {
		sh.Unlock()
	}
}

// Stats returns the relay's counters, summed across shards.
func (e *RelayEngine[R]) Stats() RelayStats {
	e.lockAll()
	defer e.unlockAll()
	st := RelayStats{BufferStats: e.sb.Stats()}
	for _, sh := range e.shards {
		st.Upgraded += sh.upgraded
		st.Forwarded += sh.forwarded
	}
	return st
}

// BufferedBytes returns current stash occupancy across all shards.
func (e *RelayEngine[R]) BufferedBytes() int {
	e.lockAll()
	defer e.unlockAll()
	return e.sb.BufferedBytes()
}

// Down reports whether the relay is crashed. Shards crash and restart
// together; the first speaks for all.
func (e *RelayEngine[R]) Down() bool {
	sh := e.shards[0]
	sh.Lock()
	defer sh.Unlock()
	return sh.BufferEngine.Down()
}

// OpenJournal turns on the stash write-ahead journal in dir (created if
// missing) under the given fsync policy (journal.SyncBatch when empty):
// one journal per shard, logging every stash insert, eviction and trim.
// Whatever a previous process left in dir is restored before the relay
// serves traffic. Call it at most once, before the first packet.
func (e *RelayEngine[R]) OpenJournal(dir, sync string) error {
	set, err := journal.OpenSet(dir, len(e.shards), sync, 0)
	if err != nil {
		return err
	}
	e.jset = set
	for i, sh := range e.shards {
		sh.cfg.Journal = set.Shard(i)
		sh.restore(set.Recovered(i))
	}
	return nil
}

// Journaled reports whether the stash journal is on.
func (e *RelayEngine[R]) Journaled() bool { return e.jset != nil }

// JournalStats returns the journal counters (zero without a journal).
func (e *RelayEngine[R]) JournalStats() journal.Stats {
	if e.jset == nil {
		return journal.Stats{}
	}
	return e.jset.Stats()
}

// JournalRecoveries returns the most recent per-shard journal recovery —
// the open-time scan, or the last restart's replay. Nil without a
// journal.
func (e *RelayEngine[R]) JournalRecoveries() []*journal.Recovered {
	if e.jset == nil {
		return nil
	}
	return e.jset.Recoveries()
}

// Close stops the journal writers and closes the segment files.
func (e *RelayEngine[R]) Close() error {
	if e.jset == nil {
		return nil
	}
	return e.jset.Close()
}

// Crash models the relay process dying: every shard's stash is released
// and the shard marked down, and the flow table is cleared — flows
// re-register and re-resolve after Restart, so no stale route survives.
// Sequence counters survive in memory. With a journal, the log is then
// flushed: every record enqueued before the crash is on disk (a record an
// adapter still draining enqueues later — an ACK trim on the crashed
// shard — reaches the log before Restart replays it, since replay flushes
// first). Crashing a crashed relay does nothing.
func (e *RelayEngine[R]) Crash() {
	if e.Down() {
		return
	}
	for _, sh := range e.shards {
		sh.Lock()
		sh.BufferEngine.Crash()
		e.active.Add(-int64(len(sh.flows)))
		clear(sh.flows)
		sh.Unlock()
	}
	if e.jset != nil {
		e.jset.Flush()
	}
}

// Restart brings a crashed relay back. With a journal the log is replayed
// first, rebuilding every shard's stash and sequence floors, so NAK
// service resumes warm. reopen, when non-nil, then lets the adapter bring
// its ingest back (the live relay rebinds its socket) before the shards
// return to service. An error from either step leaves the relay down.
func (e *RelayEngine[R]) Restart(reopen func() error) error {
	if e.jset != nil {
		recs, err := e.jset.Replay()
		if err != nil {
			return fmt.Errorf("dmtp: journal replay on restart: %w", err)
		}
		for i, sh := range e.shards {
			sh.Lock()
			sh.restore(recs[i])
			sh.Unlock()
		}
	}
	if reopen != nil {
		if err := reopen(); err != nil {
			return err
		}
	}
	for _, sh := range e.shards {
		sh.Lock()
		sh.BufferEngine.Restart()
		sh.Unlock()
	}
	return nil
}

// RegisterMetrics publishes the relay's shared metric set on reg: the
// dmtp.buf.* counters summed across shards, the stash-imbalance gauge,
// per-shard occupancy, the flow-table family, dmtp.relay.upgraded and
// .forwarded, the reshape counter for configID (the upgrade target), the
// journal family when journaling, and the packet-pool counters. Every
// sample is read under the shard locks at scrape time.
func (e *RelayEngine[R]) RegisterMetrics(reg *metrics.Registry, configID uint8) {
	RegisterBufferMetrics(reg, func() BufferStats { return e.Stats().BufferStats }, e.BufferedBytes)
	// The stash-balance invariant, read under every shard lock at once: a
	// healthy engine samples exactly 0 at any instant.
	RegisterStashImbalance(reg, func() int64 {
		e.lockAll()
		defer e.unlockAll()
		st := e.sb.Stats()
		return int64(st.BufferedBytes) - int64(st.ReleasedBytes) - int64(e.sb.BufferedBytes())
	})
	for i, sh := range e.shards {
		RegisterShardOccupancy(reg, i, func() int {
			sh.Lock()
			defer sh.Unlock()
			return sh.BufferedBytes()
		})
	}
	RegisterFlowMetrics(reg, e.FlowStats)
	reg.RegisterFunc(metrics.MetricRelayUpgraded, func() int64 { return int64(e.Stats().Upgraded) })
	reg.RegisterFunc(metrics.MetricRelayForwarded, func() int64 { return int64(e.Stats().Forwarded) })
	e.reshapeC.Store(reg.Counter(fmt.Sprintf("%s%d", metrics.MetricRelayReshapePrefix, configID)))
	if e.jset != nil {
		e.jset.RegisterMetrics(reg)
	}
	RegisterPoolMetrics(reg)
}
