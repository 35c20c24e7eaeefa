package dmtp

import "repro/internal/wire"

// ShardedBuffer partitions BufferEngine state across N shards keyed by
// wire.ExperimentID. Every per-experiment structure the engine owns —
// sequence counters, the retransmission stash, NAK service, cumulative
// trim — already lives under the experiment key, so routing each
// experiment to a fixed shard preserves per-experiment ordering exactly
// while letting adapters drive disjoint shards from different
// goroutines.
//
// Like BufferEngine itself, ShardedBuffer is not self-synchronizing: it
// contains no locks. Its user serializes access per shard (RelayEngine
// keeps one mutex per shard, which the live relay holds; the simulator's
// single event loop needs none). BufferedBytes and Stats touch every
// shard and require the caller to hold every shard's serialization.
type ShardedBuffer struct {
	shards []*BufferEngine
}

// NewShardedBuffer builds n shards (n < 1 is treated as 1) by calling
// mk once per shard index; each shard should count into its own stats
// (RelayEngine gives every shard a private BufferStats).
func NewShardedBuffer(n int, mk func(shard int) *BufferEngine) *ShardedBuffer {
	if n < 1 {
		n = 1
	}
	s := &ShardedBuffer{shards: make([]*BufferEngine, n)}
	for i := range s.shards {
		s.shards[i] = mk(i)
	}
	return s
}

// NumShards returns the shard count.
func (s *ShardedBuffer) NumShards() int { return len(s.shards) }

// ShardIndex maps an experiment ID to its shard. The multiplicative
// mix spreads the experiment<<8|slice structure of ExperimentID (low
// bits are the slice, often zero) across shards instead of letting
// sequential experiment numbers pile onto shard 0.
func (s *ShardedBuffer) ShardIndex(exp wire.ExperimentID) int {
	h := uint64(exp) * 0x9e3779b97f4a7c15
	return int((h >> 32) % uint64(len(s.shards)))
}

// Shard returns the engine owning exp's state.
func (s *ShardedBuffer) Shard(exp wire.ExperimentID) *BufferEngine {
	return s.shards[s.ShardIndex(exp)]
}

// At returns the i'th shard engine (for per-shard metrics and tests).
func (s *ShardedBuffer) At(i int) *BufferEngine { return s.shards[i] }

// NextSeq assigns the next sequence number for the experiment on its
// owning shard.
func (s *ShardedBuffer) NextSeq(exp wire.ExperimentID) uint64 {
	return s.Shard(exp).NextSeq(exp)
}

// SeqOf returns the last sequence number assigned to exp (zero if the
// experiment has never been sequenced here).
func (s *ShardedBuffer) SeqOf(exp wire.ExperimentID) uint64 {
	return s.Shard(exp).SeqOf(exp)
}

// Stash retains pkt for retransmission on exp's shard; ownership
// semantics are BufferEngine.Stash's.
func (s *ShardedBuffer) Stash(exp wire.ExperimentID, seq uint64, pkt []byte) {
	s.Shard(exp).Stash(exp, seq, pkt)
}

// Trim drops stashed packets for exp with seq <= cum on its shard.
func (s *ShardedBuffer) Trim(exp wire.ExperimentID, cum uint64) {
	s.Shard(exp).Trim(exp, cum)
}

// BufferedBytes sums stash occupancy across shards.
func (s *ShardedBuffer) BufferedBytes() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.BufferedBytes()
	}
	return total
}

// Stats sums per-shard counter snapshots. A relay crashes every shard
// together, so Crashes counts one per shard per crash.
func (s *ShardedBuffer) Stats() BufferStats {
	var agg BufferStats
	for _, sh := range s.shards {
		st := sh.Stats()
		agg.Buffered += st.Buffered
		agg.BufferedBytes += st.BufferedBytes
		agg.ReleasedBytes += st.ReleasedBytes
		agg.Evicted += st.Evicted
		agg.Trimmed += st.Trimmed
		agg.NAKs += st.NAKs
		agg.Retransmits += st.Retransmits
		agg.Misses += st.Misses
		agg.Crashes += st.Crashes
	}
	return agg
}
