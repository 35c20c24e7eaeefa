package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// payloadHeader is the part of a payload the generator rewrites per
// message: an 8-byte little-endian message index, then the flow number.
const payloadHeader = 9

// markerBit sets a stream-end marker apart from a message in the index
// field: markerBit | flow<<32 | k is flow's k-th marker. The protocol has
// no end-of-stream packet, so a lost last message is revealed only by a
// later packet on its flow; a phase ends by sending markers until one
// arrives on every flow. Markers are not offered messages.
const markerBit = 1 << 63

// checker verifies every delivered message: its index was sent, it is
// delivered once, it arrives in order within its flow, and it carries the
// bytes that were sent. Message idx belongs to flow order[idx % len(order)],
// so the flow of every index is known without storing it.
type checker struct {
	tmpl  [][]byte // per-flow payload; bytes after payloadHeader are seeded
	order []int

	issued     atomic.Uint64 // indices handed to Send so far
	done       atomic.Uint64 // distinct deliveries plus write-offs
	nDelivered atomic.Uint64
	wake       func() // called after each completion; may be nil

	mu         sync.Mutex
	seen       []uint64 // bitset of delivered indices
	last       []int64  // per flow: highest index delivered without recovery
	maxIdx     []int64  // per flow: highest index delivered
	distinct   uint64
	callbacks  uint64
	recovered  uint64
	writtenOff uint64
	dups       uint64
	disorder   uint64
	bogus      uint64 // unsent index, wrong flow, or wrong bytes

	markersSent []uint64   // per flow: markers handed to Send
	markers     [][]marker // per flow, by marker number
	revealed    []int64    // per flow: indices below it were sent before a delivered marker
	markerCB    uint64     // distinct marker deliveries

	// Open-loop phase: message pacedFirst+i was due at pacedT0 + i·period.
	pacedFirst uint64
	pacedT0    int64
	period     float64
	lat        []int64 // delivery minus due time, ns; -1 until delivered
	recLat     []int64 // the same, for messages that needed a NAK
	deliverAt  []int64 // traced run: delivery time of each paced message
}

// newChecker builds per-flow payload templates of size bytes and a seeded
// flow order: the seed sets the payload bytes and the order in which the
// generator visits the flows.
func newChecker(flows, size int, seed int64) *checker {
	rng := rand.New(rand.NewSource(seed))
	c := &checker{order: rng.Perm(flows), last: make([]int64, flows), maxIdx: make([]int64, flows),
		markersSent: make([]uint64, flows), markers: make([][]marker, flows), revealed: make([]int64, flows)}
	for f := 0; f < flows; f++ {
		t := make([]byte, size)
		rng.Read(t)
		t[8] = byte(f)
		c.tmpl = append(c.tmpl, t)
		c.last[f], c.maxIdx[f] = -1, -1
	}
	return c
}

// reserve backs the delivered-index bitset with n bits of anonymous
// memory outside the Go heap, so the run's mem_mb — the Go runtime's
// memory — is the pipeline's and does not grow with how many messages
// the benchmark has checked. Pages are touched only as indices arrive;
// past n bits the bitset grows on the heap.
func (c *checker) reserve(n uint64) {
	words := int((n + 63) / 64)
	b, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return // the heap-grown bitset still checks every index
	}
	c.seen = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), words)
}

func (c *checker) flowOf(idx uint64) int { return c.order[idx%uint64(len(c.order))] }

// delivered is the number of distinct messages delivered so far.
func (c *checker) delivered() uint64 { return c.nDelivered.Load() }

// setPaced declares that messages from first on are paced at the given
// period (ns) starting at t0, n of them.
func (c *checker) setPaced(first uint64, n int, t0 int64, period float64, traced bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pacedFirst, c.pacedT0, c.period = first, t0, period
	c.lat = make([]int64, n)
	for i := range c.lat {
		c.lat[i] = -1
	}
	c.recLat = c.recLat[:0]
	if traced {
		c.deliverAt = make([]int64, n)
	}
}

func (c *checker) due(idx uint64) int64 {
	return c.pacedT0 + int64(float64(idx-c.pacedFirst)*c.period)
}

// deliver checks one delivered message that arrived on flow (-1 when its
// experiment matches no flow) at time at.
func (c *checker) deliver(flow int, recovered bool, p []byte, at int64) {
	c.mu.Lock()
	c.callbacks++
	if flow < 0 || flow >= len(c.tmpl) || len(p) != len(c.tmpl[flow]) {
		c.bogus++
		c.mu.Unlock()
		return
	}
	idx := binary.LittleEndian.Uint64(p)
	if idx&markerBit != 0 {
		c.deliverMarker(flow, idx, p)
		c.mu.Unlock()
		return
	}
	if idx >= c.issued.Load() || c.flowOf(idx) != flow || p[8] != byte(flow) ||
		!bytes.Equal(p[payloadHeader:], c.tmpl[flow][payloadHeader:]) {
		c.bogus++
		c.mu.Unlock()
		return
	}
	w := int(idx / 64)
	for w >= len(c.seen) {
		c.seen = append(c.seen, make([]uint64, len(c.seen)+1024)...)
	}
	bit := uint64(1) << (idx % 64)
	if c.seen[w]&bit != 0 {
		c.dups++
		c.mu.Unlock()
		return
	}
	c.seen[w] |= bit
	c.distinct++
	i := int64(idx)
	if recovered {
		// A recovered message fills a gap some later message or marker
		// revealed.
		c.recovered++
		if i >= c.last[flow] && i >= c.revealed[flow] {
			c.disorder++
		}
	} else {
		if i <= c.last[flow] || i < c.revealed[flow] {
			c.disorder++
		}
		c.last[flow] = i
	}
	if i > c.maxIdx[flow] {
		c.maxIdx[flow] = i
	}
	if idx >= c.pacedFirst && idx-c.pacedFirst < uint64(len(c.lat)) {
		d := at - c.due(idx)
		c.lat[idx-c.pacedFirst] = d
		if recovered {
			c.recLat = append(c.recLat, d)
		}
		if c.deliverAt != nil {
			c.deliverAt[idx-c.pacedFirst] = at
		}
	}
	c.mu.Unlock()
	c.nDelivered.Add(1)
	c.done.Add(1)
	if c.wake != nil {
		c.wake()
	}
}

// marker is one stream-end marker: every message index below after was
// handed to Send before it.
type marker struct {
	after int64
	seen  bool
}

// deliverMarker checks one delivered stream-end marker; c.mu is held.
func (c *checker) deliverMarker(flow int, idx uint64, p []byte) {
	k := idx & (1<<32 - 1)
	if (idx&^markerBit)>>32 != uint64(flow) || k >= c.markersSent[flow] || p[8] != byte(flow) ||
		!bytes.Equal(p[payloadHeader:], c.tmpl[flow][payloadHeader:]) {
		c.bogus++
		return
	}
	m := &c.markers[flow][k]
	if m.seen {
		c.dups++
		return
	}
	m.seen = true
	c.markerCB++
	c.revealed[flow] = max(c.revealed[flow], m.after)
}

// nextMarker numbers flow's next stream-end marker and writes it into
// buf, a copy of the flow's payload.
func (c *checker) nextMarker(flow int, buf []byte) {
	c.mu.Lock()
	k := c.markersSent[flow]
	c.markersSent[flow]++
	c.markers[flow] = append(c.markers[flow], marker{after: int64(c.issued.Load())})
	c.mu.Unlock()
	binary.LittleEndian.PutUint64(buf, markerBit|uint64(flow)<<32|k)
}

// markerArrived reports whether any of flow's markers was delivered.
func (c *checker) markerArrived(flow int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.markers[flow] {
		if m.seen {
			return true
		}
	}
	return false
}

// markerCounts returns how many markers were sent, and how many of them
// were not delivered.
func (c *checker) markerCounts() (sent, lost uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for f, n := range c.markersSent {
		sent += n
		for _, m := range c.markers[f] {
			if !m.seen {
				lost++
			}
		}
	}
	return sent, lost
}

// writeOff records a sequence number the receiver gave up on.
func (c *checker) writeOff() {
	c.mu.Lock()
	c.writtenOff++
	c.mu.Unlock()
	c.done.Add(1)
	if c.wake != nil {
		c.wake()
	}
}

// tailMissing counts undelivered indices beyond the last delivered index
// of their flow: losses no later packet revealed, so no NAK asked for them.
func (c *checker) tailMissing() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.issued.Load()
	var tail uint64
	for idx := uint64(0); idx < n; idx++ {
		w := int(idx / 64)
		if idx%64 == 0 && w < len(c.seen) && c.seen[w] == ^uint64(0) && idx+64 <= n {
			idx += 63
			continue
		}
		if w < len(c.seen) && c.seen[w]&(1<<(idx%64)) != 0 {
			continue
		}
		if int64(idx) > c.maxIdx[c.flowOf(idx)] {
			tail++
		}
	}
	return tail
}

// verdict reports the delivery problems the checker saw.
func (c *checker) verdict(res *result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dups > 0 {
		res.fail(c.dups, "%d messages delivered more than once", c.dups)
	}
	if c.disorder > 0 {
		res.fail(c.disorder, "%d messages delivered out of order within their flow", c.disorder)
	}
	if c.bogus > 0 {
		res.fail(c.bogus, "%d deliveries carried an unsent index, the wrong flow or wrong bytes", c.bogus)
	}
}

// ledger holds one run's counts, measured independently at each hop.
type ledger struct {
	// Benchmark side.
	offered, distinct, callbacks, dups, writtenOffCB, recoveredCB, tailMissing uint64
	// Stream-end markers: sent, delivered, and sent but never delivered.
	markers, markerCB, markersLost uint64
	// Senders.
	sent, txErr uint64
	// Relay.
	upgraded, rejected, forwarded, injected, relayTxErr, retransmits uint64
	// Receivers' engines.
	received, delivered, duplicates, recovered, writtenOff uint64
}

// dropClasses names the ledger's drop classes in reporting order.
var dropClasses = []string{"tx_error", "relay_rx", "flow_rejected", "injected", "receiver_rx", "written_off", "undetected"}

// drops returns each drop class. relay_rx, receiver_rx and undetected
// are what the hop's measured counts leave over; the equations in
// violations check them against the rest.
func (l ledger) drops() map[string]int64 {
	return map[string]int64{
		"tx_error":      int64(l.txErr + l.relayTxErr),
		"relay_rx":      int64(l.sent) - int64(l.upgraded) - int64(l.rejected),
		"flow_rejected": int64(l.rejected),
		"injected":      int64(l.injected),
		"receiver_rx":   int64(l.forwarded+l.retransmits) - int64(l.received),
		"written_off":   int64(l.writtenOff),
		"undetected":    int64(l.offered) - int64(l.distinct) - int64(l.writtenOff),
	}
}

// violations checks that the ledger closes — at each hop packets in =
// packets out + drops, and offered = delivered + written off +
// undetected — with the drop class hide (if any) left out, as a ledger
// that forgot that class would be.
func (l ledger) violations(hide string) []string {
	d := l.drops()
	if hide != "" {
		d[hide] = 0
	}
	txSender, txRelay := int64(l.txErr), int64(l.relayTxErr)
	if hide == "tx_error" {
		txSender, txRelay = 0, 0
	}
	var out []string
	eq := func(name string, lhs, rhs int64) {
		if lhs != rhs {
			out = append(out, fmt.Sprintf("%s: %d != %d", name, lhs, rhs))
		}
	}
	ge := func(name string, lhs, rhs int64) {
		if lhs < rhs {
			out = append(out, fmt.Sprintf("%s: %d < %d", name, lhs, rhs))
		}
	}
	i := func(v uint64) int64 { return int64(v) }
	eq("sender: offered + markers = sent + tx_error", i(l.offered+l.markers), i(l.sent)+txSender)
	eq("relay in: sent = upgraded + flow_rejected + relay_rx", i(l.sent), i(l.upgraded)+d["flow_rejected"]+d["relay_rx"])
	ge("relay in: relay_rx >= 0", d["relay_rx"], 0)
	eq("relay out: upgraded = forwarded + injected + tx_error", i(l.upgraded), i(l.forwarded)+d["injected"]+txRelay)
	eq("receiver in: forwarded + retransmits = received + receiver_rx", i(l.forwarded+l.retransmits), i(l.received)+d["receiver_rx"])
	ge("receiver in: receiver_rx >= 0", d["receiver_rx"], 0)
	eq("receiver: received = delivered + duplicates", i(l.received), i(l.delivered+l.duplicates))
	eq("application: callbacks = delivered", i(l.callbacks), i(l.delivered))
	eq("application: distinct = callbacks - duplicate indices - markers", i(l.distinct), i(l.callbacks-l.dups-l.markerCB))
	eq("application: markers = delivered markers + lost markers", i(l.markers), i(l.markerCB+l.markersLost))
	eq("application: write-off callbacks = written_off", i(l.writtenOffCB), d["written_off"])
	eq("application: recovered deliveries = engine recoveries", i(l.recoveredCB), i(l.recovered))
	eq("messages: offered = delivered + written_off + undetected", i(l.offered), i(l.distinct)+d["written_off"]+d["undetected"])
	ge("messages: undetected >= undelivered flow tails", d["undetected"], i(l.tailMissing))
	ge("messages: undelivered flow tails + losses before sequencing >= undetected",
		i(l.tailMissing)+d["tx_error"]+d["relay_rx"]+d["flow_rejected"], d["undetected"])
	ge("recovery: recovered + written_off + flow tails + lost markers >= injected",
		i(l.recovered)+d["written_off"]+i(l.tailMissing)+i(l.markersLost), d["injected"])
	ge("recovery: injected + receiver_rx >= recovered + written_off", d["injected"]+d["receiver_rx"], i(l.recovered)+d["written_off"])
	return out
}

// judge applies the ledger to res: a ledger that does not close makes
// the run incorrect, and every hidden-class variant of a nonzero class
// must fail to close, or the ledger could not have seen that class.
func (l ledger) judge(res *result) {
	for _, v := range l.violations("") {
		res.fail(1, "ledger does not close: %s", v)
	}
	for _, class := range dropClasses {
		if l.drops()[class] != 0 && len(l.violations(class)) == 0 {
			res.fail(1, "ledger closes without drop class %s, which is %d", class, l.drops()[class])
		}
	}
}

// selfTest proves each benchmark check can fail: a ledger that hides a
// drop class, a duplicated delivery, an out-of-order delivery and an
// unsent index must each be reported. It runs before every measurement;
// a check that cannot fail makes the run incorrect.
func selfTest(res *result) {
	for _, p := range selfTestProblems() {
		res.fail(1, "self-test: %s", p)
	}
}

func selfTestProblems() []string {
	var out []string
	// A lossy run: 1002 offered and 2 stream-end markers, one message
	// lost to a sender write error; of the 1003 packets sent, one was
	// refused by the flow table and two died in the relay's socket; of 10
	// injected drops 9 were recovered and one was a flow tail; one kernel
	// drop at the receiver was written off.
	good := ledger{
		offered: 1002, sent: 1003, txErr: 1, rejected: 1, upgraded: 1000, forwarded: 990, injected: 10,
		retransmits: 9, received: 998, delivered: 998, callbacks: 998, distinct: 996,
		recovered: 9, recoveredCB: 9, writtenOff: 1, writtenOffCB: 1, tailMissing: 1,
		markers: 2, markerCB: 2,
	}
	if v := good.violations(""); len(v) > 0 {
		out = append(out, fmt.Sprintf("a balanced ledger does not close: %v", v))
	}
	for _, class := range dropClasses {
		if good.drops()[class] != 0 && len(good.violations(class)) == 0 {
			out = append(out, "a ledger without drop class "+class+" still closes")
		}
	}
	for _, tc := range []struct {
		name    string
		deliver func(c *checker)
		count   func(c *checker) uint64
	}{
		{"duplicated delivery", func(c *checker) {
			c.deliverIdx(0, false)
			c.deliverIdx(1, false)
			c.deliverIdx(1, false)
		}, func(c *checker) uint64 { return c.dups }},
		{"out-of-order delivery", func(c *checker) {
			c.deliverIdx(0, false)
			c.deliverIdx(2, false)
			c.deliverIdx(1, false)
		}, func(c *checker) uint64 { return c.disorder }},
		{"recovered message no later delivery revealed", func(c *checker) {
			c.deliverIdx(0, false)
			c.deliverIdx(1, true)
		}, func(c *checker) uint64 { return c.disorder }},
		{"unsent index", func(c *checker) {
			c.deliverIdx(7, false)
		}, func(c *checker) uint64 { return c.bogus }},
		{"unsent marker", func(c *checker) {
			p := append([]byte(nil), c.tmpl[0]...)
			c.nextMarker(0, p)
			c.deliver(0, false, p, 0)
			binary.LittleEndian.PutUint64(p, markerBit|1)
			c.deliver(0, false, p, 0)
		}, func(c *checker) uint64 { return c.bogus }},
	} {
		c := newChecker(1, 32, 1)
		c.issued.Store(3)
		tc.deliver(c)
		if tc.count(c) == 0 {
			out = append(out, "a "+tc.name+" went unreported")
		}
		r := newResult()
		c.verdict(r)
		if r.correct {
			out = append(out, "a "+tc.name+" left the run correct")
		}
	}
	return out
}

// deliverIdx delivers a well-formed copy of message idx (self-tests).
func (c *checker) deliverIdx(idx uint64, recovered bool) {
	f := c.flowOf(idx)
	p := append([]byte(nil), c.tmpl[f]...)
	binary.LittleEndian.PutUint64(p, idx)
	c.deliver(f, recovered, p, 0)
}

// quantile returns the q-quantile of vs (sorted in place), by rank.
func quantile(vs []int64, q float64) int64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	k := int(q * float64(len(vs)-1))
	return vs[k]
}

// median returns the median of vs (sorted in place).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
