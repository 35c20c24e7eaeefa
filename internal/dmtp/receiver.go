package dmtp

import (
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

// Message is one delivered DAQ message with transport-level metadata.
// Both substrates deliver this exact type (internal/core and
// internal/live alias it).
type Message struct {
	Experiment wire.ExperimentID
	Seq        uint64 // 0 when the stream is unsequenced
	Payload    []byte
	// Latency is origin-to-delivery time when the packet carried an
	// origin timestamp; otherwise -1.
	Latency time.Duration
	// Aged reports the in-network age flag.
	Aged bool
	// Late reports a missed delivery deadline, checked at the
	// destination (pilot mode 3).
	Late bool
	// Recovered marks messages restored via NAK retransmission.
	Recovered bool
}

// ReceiverStats are cumulative receiver-engine counters.
type ReceiverStats struct {
	Received    uint64
	Bytes       uint64
	Delivered   uint64
	Duplicates  uint64
	GapsSeen    uint64
	NAKsSent    uint64
	Recovered   uint64
	Lost        uint64 // given up after MaxNAKs
	Aged        uint64
	Late        uint64
	Unsequenced uint64
	// Rejected counts packets discarded by the MaxSeqJump corruption
	// guard: their sequence field jumped implausibly far ahead.
	Rejected uint64
}

// DefaultMaxSeqJump is the forward sequence jump a receiver accepts from
// a single packet when ReceiverConfig.MaxSeqJump is zero. Real streams
// gap by at most a few thousand sequences (rate × recovery window); a
// corrupted sequence field gaps by up to 2^63.
const DefaultMaxSeqJump = 1 << 20

// ReceiverConfig configures a ReceiverEngine. Adapters apply their own
// substrate defaults (the simulator's reorder tolerance is hundreds of
// microseconds, the live path's is milliseconds) before construction.
type ReceiverConfig struct {
	// NAKDelay is the reorder tolerance: how long after detecting a gap
	// the first NAK is sent.
	NAKDelay time.Duration
	// NAKRetry is the retransmission-request timeout; it should cover
	// the round trip to the nearest buffer. Retries back off
	// exponentially with seeded jitter, capped at NAKRetryMax.
	NAKRetry time.Duration
	// NAKRetryMax caps the exponential backoff between retries. Without
	// the cap a large MaxNAKs overflows the shift into a sub-tick spin.
	NAKRetryMax time.Duration
	// MaxNAKs bounds recovery attempts per sequence number before the
	// packet is declared lost.
	MaxNAKs int
	// Seed drives the retry jitter, for deterministic tests.
	Seed int64
	// MaxSeqJump bounds the forward sequence jump accepted from a single
	// packet. The gap tracker materialises per-sequence recovery state
	// for every number between maxSeen and an arriving seq, so one
	// corrupted sequence field could otherwise demand ~2^63 entries.
	// Packets jumping further are dropped and counted as Rejected. Zero
	// means DefaultMaxSeqJump.
	MaxSeqJump uint64
	// AckInterval, when nonzero, emits cumulative ACKs to the buffer so
	// it can trim acknowledged packets.
	AckInterval time.Duration
	// Ordered buffers sequenced messages and delivers them in sequence
	// order instead of on arrival (the head-of-line-blocking ablation).
	Ordered bool
	// OnGap reports each sequence number written off as permanently
	// lost after MaxNAKs — the deliver-with-gap degradation signal.
	OnGap func(exp wire.ExperimentID, seq uint64)
	// OnNAK observes every NAK the engine emits (after it was handed to
	// the datapath); the conformance suite records these.
	OnNAK func(exp wire.ExperimentID, ranges []wire.SeqRange)
	// FinalizePayload extracts the delivered payload from a view. The
	// returned bytes outlive the Ingest call; substrates whose views
	// alias transient buffers must copy here. Nil means "always copy".
	FinalizePayload func(v wire.View) []byte
	// Deliver hands each finalized message to the adapter. Called
	// synchronously from Ingest and timer fires; adapters that must not
	// run application callbacks under their own locks queue here.
	Deliver func(m Message)
	// Stats, when non-nil, is where the engine counts; adapters expose
	// it as their own stats field. Nil allocates a private struct.
	Stats *ReceiverStats
	// LatencyHist, RecoveryHist and OrderedHOL, when non-nil, record
	// origin→delivery latency, gap-detection→recovery latency, and
	// ordered-delivery head-of-line wait.
	LatencyHist  *telemetry.Histogram
	RecoveryHist *telemetry.Histogram
	OrderedHOL   *telemetry.Histogram
	// Recorder, when non-nil, receives flight-recorder events
	// (gap-detected, nak-sent, recovered, write-off) stamped with the
	// engine clock. Recording is lock- and allocation-free; nil disables
	// it entirely.
	Recorder *metrics.FlightRecorder
	// Tracer, when non-nil, receives one tracespan.Delivery per sampled
	// traced message at delivery — the receiver's "delivery stamp".
	// Untraced and sampled-out messages never touch it, preserving the
	// zero-allocation, zero-atomics datapath.
	Tracer *tracespan.Collector
}

type rxMissing struct {
	detected int64
	naks     int
	nextNAK  int64
}

type rxStream struct {
	exp     wire.ExperimentID
	maxSeen uint64
	floor   uint64 // every seq ≤ floor is received or written off
	// received tracks seqs above the floor that have arrived; entries
	// are deleted as the floor advances over them.
	received map[uint64]bool
	missing  map[uint64]*rxMissing
	buffer   wire.Addr // most recent retransmission-buffer pointer
	timer    Timer
	timerAt  int64
	ackTimer Timer
	ackArmed bool
	// lastActivity gates the ack cycle's idle shutdown.
	lastActivity int64
	// Ordered-delivery state: messages awaiting their turn and the next
	// sequence number to hand to the application.
	pending     map[uint64]pendingRx
	nextDeliver uint64
}

type pendingRx struct {
	msg     Message
	arrived int64
}

// ReceiverEngine is the downstream DMTP protocol state machine: it
// delivers messages, detects loss from sequence gaps, schedules NAKs to
// the nearest upstream buffer with capped jittered exponential backoff,
// writes gaps off as permanent loss after MaxNAKs, and performs the
// destination timeliness check. It is substrate-agnostic: internal/core
// drives it from the simulator, internal/live from UDP sockets.
//
// The engine is not self-synchronizing: the adapter must serialize
// Ingest, timer fires (via its Clock), and every accessor.
type ReceiverEngine struct {
	cfg   ReceiverConfig
	clock Clock
	dp    Datapath
	self  wire.Addr
	rng   *rand.Rand // retry jitter
	stats *ReceiverStats

	streams map[wire.ExperimentID]*rxStream
	scratch []uint64 // due-seq sweep, reused across fires
	due     []uint64 // NAKable subset, reused across fires
}

// NewReceiverEngine builds an engine over the given substrate contracts.
func NewReceiverEngine(clock Clock, dp Datapath, cfg ReceiverConfig) *ReceiverEngine {
	stats := cfg.Stats
	if stats == nil {
		stats = &ReceiverStats{}
	}
	if cfg.MaxSeqJump == 0 {
		cfg.MaxSeqJump = DefaultMaxSeqJump
	}
	return &ReceiverEngine{
		cfg:     cfg,
		clock:   clock,
		dp:      dp,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		stats:   stats,
		streams: make(map[wire.ExperimentID]*rxStream),
	}
}

// SetSelf installs the engine's own address — the NAK requester and ack
// acker field. Adapters call it once bound (socket) or attached (node).
func (e *ReceiverEngine) SetSelf(a wire.Addr) { e.self = a }

// Stats returns a snapshot of the engine counters.
func (e *ReceiverEngine) Stats() ReceiverStats { return *e.stats }

// OutstandingGaps returns the number of sequence numbers currently
// awaiting recovery across all streams.
func (e *ReceiverEngine) OutstandingGaps() int {
	n := 0
	for _, st := range e.streams {
		n += len(st.missing)
	}
	return n
}

// Stop cancels every pending engine timer.
func (e *ReceiverEngine) Stop() {
	for _, st := range e.streams {
		if st.timer != nil {
			st.timer.Stop()
			st.timer = nil
		}
		if st.ackTimer != nil {
			st.ackTimer.Stop()
			st.ackTimer = nil
			st.ackArmed = false
		}
	}
}

// Ingest processes one validated data packet (the adapter has already
// run wire.View.Check and filtered control traffic).
func (e *ReceiverEngine) Ingest(v wire.View) {
	now := e.clock.Now()
	e.stats.Received++
	e.stats.Bytes += uint64(len(v))
	feats := v.Features()
	exp := v.Experiment()

	msg := Message{Experiment: exp, Latency: -1}
	if feats.Has(wire.FeatTimestamped) {
		if origin, err := v.OriginTimestamp(); err == nil && origin > 0 {
			msg.Latency = time.Duration(uint64(now) - origin)
			if e.cfg.LatencyHist != nil {
				e.cfg.LatencyHist.ObserveDuration(msg.Latency)
			}
		}
	}
	if feats.Has(wire.FeatAgeTracked) {
		if age, err := v.Age(); err == nil {
			aged := age.Aged()
			// Destination timeliness check (pilot mode 3): the receiver
			// recomputes the final age from the origin timestamp, so a
			// budget blown on the last segment is caught even though no
			// network element sits there to update the field.
			if !aged && age.MaxAgeMicros > 0 && msg.Latency >= 0 &&
				uint64(msg.Latency/time.Microsecond) >= uint64(age.MaxAgeMicros) {
				aged = true
			}
			if aged {
				msg.Aged = true
				e.stats.Aged++
			}
		}
	}
	if feats.Has(wire.FeatTimely) {
		if deadline, _, err := v.Deadline(); err == nil && deadline != 0 && uint64(now) > deadline {
			msg.Late = true
			e.stats.Late++
		}
	}

	if !feats.Has(wire.FeatSequenced) {
		e.stats.Unsequenced++
		e.observeTrace(v, msg, now, 0, 0)
		e.handOver(e.finalize(v, msg))
		return
	}
	seq, err := v.Seq()
	if err != nil || seq == 0 {
		e.stats.Unsequenced++
		e.observeTrace(v, msg, now, 0, 0)
		e.handOver(e.finalize(v, msg))
		return
	}
	msg.Seq = seq

	st := e.stream(exp, now)
	if seq > st.maxSeen && seq-st.maxSeen > e.cfg.MaxSeqJump {
		// A forward jump this large is a corrupted sequence field, not
		// real traffic: accepting it would materialise recovery state
		// for every sequence in between. Reject the packet outright;
		// if it was genuine, its NAKed retransmission will arrive with
		// the stream caught up.
		e.stats.Rejected++
		return
	}
	if feats.Has(wire.FeatReliable) {
		if buf, err := v.RetransmitBuffer(); err == nil && !buf.IsZero() {
			st.buffer = buf
		}
	}
	if seq <= st.floor || st.received[seq] {
		e.stats.Duplicates++
		return
	}
	st.received[seq] = true
	var recDetected int64
	var recNAKs int
	if m, wasMissing := st.missing[seq]; wasMissing {
		delete(st.missing, seq)
		// Only arrivals that needed a NAK count as recovered; a packet
		// that shows up before the first NAK fires was merely reordered,
		// not lost.
		if m.naks > 0 {
			msg.Recovered = true
			recDetected, recNAKs = m.detected, m.naks
			e.stats.Recovered++
			e.cfg.Recorder.RecordAt(now, metrics.EvRecovered, uint64(exp), seq, uint64(m.naks))
			if e.cfg.RecoveryHist != nil {
				e.cfg.RecoveryHist.ObserveDuration(time.Duration(now - m.detected))
			}
		}
	}
	if seq > st.maxSeen {
		var gapFirst, gapLast uint64
		for s := st.maxSeen + 1; s < seq; s++ {
			if s > st.floor+GapFloorBias && !st.received[s] {
				st.missing[s] = &rxMissing{detected: now, nextNAK: now + int64(e.cfg.NAKDelay)}
				e.stats.GapsSeen++
				if gapFirst == 0 {
					gapFirst = s
				}
				gapLast = s
			}
		}
		if gapFirst != 0 {
			e.cfg.Recorder.RecordAt(now, metrics.EvGapDetected, uint64(exp), gapFirst, gapLast)
		}
		st.maxSeen = seq
	}
	e.advanceFloor(st)
	e.armTimer(st)
	e.observeTrace(v, msg, now, recDetected, recNAKs)
	if e.cfg.Ordered {
		st.pending[seq] = pendingRx{msg: e.finalize(v, msg), arrived: now}
		e.flushOrdered(st, now)
		return
	}
	e.handOver(e.finalize(v, msg))
}

// observeTrace records a sampled traced message's delivery with the span
// collector. The sampled-flag check is the entire cost for untraced and
// sampled-out packets: no allocation, no atomics, no collector lock.
func (e *ReceiverEngine) observeTrace(v wire.View, msg Message, now, detected int64, naks int) {
	if e.cfg.Tracer == nil || !v.TraceSampled() {
		return
	}
	t, err := v.Trace()
	if err != nil {
		return
	}
	e.cfg.Tracer.Observe(tracespan.Delivery{
		Trace:      t,
		Exp:        msg.Experiment,
		Seq:        msg.Seq,
		ConfigID:   v.ConfigID(),
		At:         now,
		Recovered:  msg.Recovered,
		DetectedAt: detected,
		NAKs:       naks,
	})
}

// finalize extracts the payload and completes the message.
func (e *ReceiverEngine) finalize(v wire.View, msg Message) Message {
	if e.cfg.FinalizePayload != nil {
		msg.Payload = e.cfg.FinalizePayload(v)
	} else {
		msg.Payload = append([]byte(nil), v.Payload()...)
	}
	return msg
}

// handOver delivers a finalized message to the adapter.
func (e *ReceiverEngine) handOver(msg Message) {
	e.stats.Delivered++
	if e.cfg.Deliver != nil {
		e.cfg.Deliver(msg)
	}
}

// flushOrdered hands over every pending message whose turn has come,
// skipping sequence numbers that were written off as lost.
func (e *ReceiverEngine) flushOrdered(st *rxStream, now int64) {
	for st.nextDeliver <= st.maxSeen {
		if pm, ok := st.pending[st.nextDeliver]; ok {
			delete(st.pending, st.nextDeliver)
			if e.cfg.OrderedHOL != nil {
				e.cfg.OrderedHOL.ObserveDuration(time.Duration(now - pm.arrived))
			}
			e.handOver(pm.msg)
			st.nextDeliver++
			continue
		}
		if st.nextDeliver <= st.floor {
			st.nextDeliver++ // written off as lost; skip its slot
			continue
		}
		return // still awaiting recovery
	}
}

func (e *ReceiverEngine) stream(exp wire.ExperimentID, now int64) *rxStream {
	st, ok := e.streams[exp]
	if !ok {
		st = &rxStream{
			exp:         exp,
			received:    make(map[uint64]bool),
			missing:     make(map[uint64]*rxMissing),
			pending:     make(map[uint64]pendingRx),
			nextDeliver: 1,
		}
		e.streams[exp] = st
	}
	st.lastActivity = now
	if e.cfg.AckInterval > 0 && !st.ackArmed {
		st.ackArmed = true
		e.scheduleAck(st)
	}
	return st
}

func (e *ReceiverEngine) advanceFloor(st *rxStream) {
	for st.received[st.floor+1] {
		delete(st.received, st.floor+1)
		st.floor++
	}
}

// armTimer (re)schedules the NAK timer for the earliest pending action.
func (e *ReceiverEngine) armTimer(st *rxStream) {
	if len(st.missing) == 0 {
		if st.timer != nil {
			st.timer.Stop()
			st.timer = nil
		}
		return
	}
	var earliest int64
	first := true
	for _, m := range st.missing {
		if first || m.nextNAK < earliest {
			earliest = m.nextNAK
			first = false
		}
	}
	if st.timer != nil {
		if st.timerAt <= earliest {
			return
		}
		st.timer.Stop()
		st.timer = nil
	}
	if now := e.clock.Now(); earliest < now {
		earliest = now
	}
	st.timerAt = earliest
	st.timer = e.clock.Schedule(earliest, func() {
		st.timer = nil
		e.fireNAKs(st)
	})
}

// fireNAKs retries or writes off every due gap, then emits one NAK for
// the batch. The sweep runs in ascending sequence order so jitter draws,
// write-off notifications and the resulting ranges are identical for
// identical histories — the property the conformance suite checks.
func (e *ReceiverEngine) fireNAKs(st *rxStream) {
	now := e.clock.Now()
	e.scratch = e.scratch[:0]
	for seq, m := range st.missing {
		if m.nextNAK <= now {
			e.scratch = append(e.scratch, seq)
		}
	}
	sortSeqs(e.scratch)
	e.due = e.due[:0]
	for _, seq := range e.scratch {
		m := st.missing[seq]
		if m.naks >= e.cfg.MaxNAKs {
			// Give up: count as lost and stop tracking, so delivery
			// degrades to deliver-with-gap instead of NAKing forever.
			delete(st.missing, seq)
			st.received[seq] = true // write off so the floor advances
			e.stats.Lost++
			e.cfg.Recorder.RecordAt(now, metrics.EvWriteOff, uint64(st.exp), seq, uint64(m.naks))
			if e.cfg.OnGap != nil {
				e.cfg.OnGap(st.exp, seq)
			}
			continue
		}
		e.due = append(e.due, seq)
		m.naks++
		m.nextNAK = now + int64(e.retryBackoff(m.naks))
	}
	e.advanceFloor(st)
	if e.cfg.Ordered {
		e.flushOrdered(st, now) // written-off slots unblock ordered delivery
	}
	if len(e.due) > 0 && !st.buffer.IsZero() {
		nak := wire.NAK{
			Experiment: st.exp,
			Requester:  e.self,
			Ranges:     ToRanges(e.due),
		}
		if data, err := nak.AppendTo(nil); err == nil {
			e.dp.SendControl(st.buffer, data)
			e.stats.NAKsSent++
			e.cfg.Recorder.RecordAt(now, metrics.EvNAKSent, uint64(st.exp), e.due[0], uint64(len(e.due)))
			if e.cfg.OnNAK != nil {
				e.cfg.OnNAK(st.exp, nak.Ranges)
			}
		}
	}
	e.armTimer(st)
}

// retryBackoff returns the backoff before retry n (1-based): base·2^(n-1)
// clamped to NAKRetryMax, then jittered uniformly in [½, 1½)× so
// synchronized gaps — e.g. many receivers losing the same burst — don't
// NAK in lockstep. The clamp matters: an unclamped shift overflows
// time.Duration once MaxNAKs exceeds ~40, degenerating into a sub-tick
// retry spin on permanently lost packets.
func (e *ReceiverEngine) retryBackoff(n int) time.Duration {
	shift := n - 1
	if shift > 20 {
		shift = 20
	}
	b := e.cfg.NAKRetry << shift
	if b <= 0 || b > e.cfg.NAKRetryMax {
		b = e.cfg.NAKRetryMax
	}
	return b/2 + time.Duration(e.rng.Int63n(int64(b)))
}

func (e *ReceiverEngine) scheduleAck(st *rxStream) {
	st.ackTimer = e.clock.Schedule(e.clock.Now()+int64(e.cfg.AckInterval), func() {
		st.ackTimer = nil
		if st.floor > 0 && !st.buffer.IsZero() {
			ack := wire.Ack{Experiment: st.exp, CumulativeSeq: st.floor, Acker: e.self}
			if data, err := ack.AppendTo(nil); err == nil {
				e.dp.SendControl(st.buffer, data)
			}
		}
		// Stop re-arming once the stream has gone idle, so simulations
		// drain; the next arriving packet re-arms the cycle.
		if e.clock.Now()-st.lastActivity > 4*int64(e.cfg.AckInterval) {
			st.ackArmed = false
			return
		}
		e.scheduleAck(st)
	})
}
