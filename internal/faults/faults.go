// Package faults is a seeded, deterministic fault-injection layer usable
// from both transport substrates: the discrete-event simulator
// (internal/netsim, via a link fault hook) and the live UDP path
// (internal/live, via a PacketConn middleware). One Plan drives both, so a
// chaos scenario — burst loss, reorder windows, duplication, bit
// corruption, link flaps, relay crashes — expressed once runs identically
// against the simulated network and real sockets.
//
// Determinism is the point: every per-packet decision consumes a fixed
// number of draws from a seeded RNG, so the fault schedule is a pure
// function of (seed, packet index). The same seed therefore reproduces the
// same failure on either substrate, which is what makes chaos-test
// regressions debuggable (the Steinbeck fault-tolerant DAQ framework makes
// the same argument for deterministic failure replay).
//
// Burst loss follows the two-state Gilbert model: in the good state
// packets pass, in the bad state every packet drops, and the transition
// probabilities are derived from the target stationary loss fraction and
// mean burst length. Link flaps are scripted windows on the elapsed clock
// (virtual time in the simulator, wall time since Plan creation on the
// live path) during which everything drops.
package faults

import (
	"math/rand"
	"sync"
	"time"
)

// Drop classes a Decision's Kind names. Each counts into its own field of
// Injected; recoveries are counted by the transport engines' stats.
const (
	CounterDropBurst    = "inject.drop.burst"
	CounterDropScripted = "inject.drop.scripted"
	CounterDropFlap     = "inject.drop.flap"
)

// Injected counts the faults a Plan has injected, by class.
type Injected struct {
	DropBurst    uint64
	DropScripted uint64
	DropFlap     uint64
	Corrupt      uint64
	Duplicate    uint64
	Reorder      uint64
}

// Drops sums the three drop classes.
func (c Injected) Drops() uint64 { return c.DropBurst + c.DropScripted + c.DropFlap }

// Flap is a scripted link-down window on the elapsed clock: every packet
// offered in [Start, Start+Len) is dropped.
type Flap struct {
	Start time.Duration
	Len   time.Duration
}

func (f Flap) contains(elapsed time.Duration) bool {
	return elapsed >= f.Start && elapsed < f.Start+f.Len
}

// IndexWindow is a scripted link-down window in packet-index space: every
// packet whose 1-based index i satisfies From ≤ i ≤ To is dropped. Unlike
// Flaps, which consult the substrate's elapsed clock (wall time on the
// live path), index windows depend only on the offered-packet count, so
// the same window drops the same packets on both substrates — the form
// the differential conformance scenarios and the campaign runner use.
type IndexWindow struct {
	From, To uint64
}

func (w IndexWindow) contains(idx uint64) bool {
	return idx >= w.From && idx <= w.To
}

// Spec declares a fault schedule. The zero value injects nothing.
type Spec struct {
	// Seed drives every probabilistic decision. Two Plans with equal
	// Spec produce identical per-packet schedules.
	Seed int64

	// BurstLoss is the target stationary loss fraction of the Gilbert
	// burst-loss process (e.g. 0.10 for 10% loss in bursts). Zero
	// disables burst loss.
	BurstLoss float64
	// MeanBurstLen is the expected number of consecutive drops per burst;
	// zero means 3 (the classic "3-packet burst" regime).
	MeanBurstLen float64

	// ReorderProb delays a packet by ReorderDelay, letting later packets
	// overtake it — the reorder-window condition NAK delay exists for.
	ReorderProb float64
	// ReorderDelay is how much later a reordered packet is delivered;
	// zero means 1 ms (≈ several packets at DAQ rates).
	ReorderDelay time.Duration

	// DupProb delivers a packet twice.
	DupProb float64

	// CorruptProb flips one payload bit, modelling in-flight corruption
	// that survives to the receiver (or is caught by its header check).
	CorruptProb float64

	// Flaps are scripted link-down windows.
	Flaps []Flap

	// DropWindows are scripted link-down windows in packet-index space,
	// counted as flap drops. They are the substrate-deterministic form of
	// Flaps: the live path's elapsed clock is wall time, so only index
	// windows reproduce identically there.
	DropWindows []IndexWindow

	// DropPackets drops the listed 1-based packet indices outright —
	// exact scripted losses for table-driven tests.
	DropPackets []uint64

	// DupPackets duplicates the listed 1-based packet indices — exact
	// scripted duplication for table-driven differential tests.
	DupPackets []uint64
}

func (s Spec) withDefaults() Spec {
	if s.MeanBurstLen == 0 {
		s.MeanBurstLen = 3
	}
	if s.ReorderDelay == 0 {
		s.ReorderDelay = time.Millisecond
	}
	return s
}

// Decision is the verdict for one offered packet.
type Decision struct {
	// Drop discards the packet; Kind names its drop class.
	Drop bool
	Kind string
	// Duplicate delivers the packet a second time.
	Duplicate bool
	// CorruptBit, when ≥ 0, is raw entropy for choosing which bit to
	// flip; apply it modulo the packet's bit length (FlipBit does).
	CorruptBit int
	// Delay postpones delivery, reordering the packet past its
	// successors.
	Delay time.Duration
}

// Plan is an instantiated fault schedule. It is safe for concurrent use:
// the live path consults it from multiple goroutines, the simulator from
// its single event-loop goroutine.
type Plan struct {
	spec Spec

	mu      sync.Mutex
	rng     *rand.Rand
	bad     bool // Gilbert state
	pToBad  float64
	pToGood float64
	packets uint64
	drops   map[uint64]bool
	dups    map[uint64]bool
	inj     Injected
}

// New builds a Plan from spec.
func New(spec Spec) *Plan {
	spec = spec.withDefaults()
	p := &Plan{
		spec:  spec,
		rng:   rand.New(rand.NewSource(spec.Seed)),
		drops: make(map[uint64]bool, len(spec.DropPackets)),
		dups:  make(map[uint64]bool, len(spec.DupPackets)),
	}
	for _, idx := range spec.DropPackets {
		p.drops[idx] = true
	}
	for _, idx := range spec.DupPackets {
		p.dups[idx] = true
	}
	// Gilbert transitions: P(bad→good) = 1/meanBurstLen; solve
	// P(good→bad) so the stationary bad fraction equals BurstLoss.
	p.pToGood = 1 / spec.MeanBurstLen
	if l := spec.BurstLoss; l > 0 && l < 1 {
		p.pToBad = p.pToGood * l / (1 - l)
	} else if l >= 1 {
		p.pToBad = 1
		p.pToGood = 0
	}
	return p
}

// Injected returns the faults the plan has injected so far.
func (p *Plan) Injected() Injected {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inj
}

// Packets returns how many packets the plan has judged so far.
func (p *Plan) Packets() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.packets
}

// Decide judges the next offered packet. elapsed is the substrate clock:
// virtual time in the simulator, time since start on the live path; only
// scripted Flaps consult it — every probabilistic decision depends solely
// on (seed, packet index), keeping schedules identical across substrates.
func (p *Plan) Decide(elapsed time.Duration) Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.packets++

	// Fixed draw order and count per packet: burst transition, corrupt,
	// duplicate, reorder, corrupt-bit entropy. Never early-return before
	// all draws, or later packets' decisions would shift.
	trans := p.rng.Float64()
	cDraw := p.rng.Float64()
	dDraw := p.rng.Float64()
	rDraw := p.rng.Float64()
	bit := p.rng.Intn(1 << 20)

	if p.bad {
		if trans < p.pToGood {
			p.bad = false
		}
	} else if trans < p.pToBad {
		p.bad = true
	}

	d := Decision{CorruptBit: -1}
	switch {
	case p.drops[p.packets]:
		d.Drop, d.Kind = true, CounterDropScripted
		p.inj.DropScripted++
	case p.windowed(p.packets), p.flapped(elapsed):
		d.Drop, d.Kind = true, CounterDropFlap
		p.inj.DropFlap++
	case p.bad && p.spec.BurstLoss > 0:
		d.Drop, d.Kind = true, CounterDropBurst
		p.inj.DropBurst++
	}
	if d.Drop {
		return d
	}
	if p.spec.CorruptProb > 0 && cDraw < p.spec.CorruptProb {
		d.CorruptBit = bit
		p.inj.Corrupt++
	}
	if p.dups[p.packets] || (p.spec.DupProb > 0 && dDraw < p.spec.DupProb) {
		d.Duplicate = true
		p.inj.Duplicate++
	}
	if p.spec.ReorderProb > 0 && rDraw < p.spec.ReorderProb {
		d.Delay = p.spec.ReorderDelay
		p.inj.Reorder++
	}
	return d
}

func (p *Plan) windowed(idx uint64) bool {
	for _, w := range p.spec.DropWindows {
		if w.contains(idx) {
			return true
		}
	}
	return false
}

func (p *Plan) flapped(elapsed time.Duration) bool {
	for _, f := range p.spec.Flaps {
		if f.contains(elapsed) {
			return true
		}
	}
	return false
}

// FlipBit returns a copy of pkt with the decision's corrupt bit flipped
// (raw entropy reduced modulo the packet's bit length). It returns pkt
// unchanged when the decision carries no corruption or the packet is empty.
func (d Decision) FlipBit(pkt []byte) []byte {
	if d.CorruptBit < 0 || len(pkt) == 0 {
		return pkt
	}
	cp := append([]byte(nil), pkt...)
	bit := d.CorruptBit % (len(cp) * 8)
	cp[bit/8] ^= 1 << (bit % 8)
	return cp
}
