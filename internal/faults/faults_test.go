package faults

import (
	"math"
	"testing"
	"time"
)

// decide runs n decisions at a fixed elapsed clock and returns them.
func decide(p *Plan, n int, elapsed time.Duration) []Decision {
	out := make([]Decision, n)
	for i := range out {
		out[i] = p.Decide(elapsed)
	}
	return out
}

func TestSameSeedIdenticalSchedule(t *testing.T) {
	spec := Spec{
		Seed:        42,
		BurstLoss:   0.10,
		ReorderProb: 0.05,
		DupProb:     0.02,
		CorruptProb: 0.02,
	}
	a := decide(New(spec), 5000, 0)
	b := decide(New(spec), 5000, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d diverged: %+v vs %+v", i+1, a[i], b[i])
		}
	}
}

func TestDifferentSeedDivergesSchedule(t *testing.T) {
	mk := func(seed int64) []Decision {
		return decide(New(Spec{Seed: seed, BurstLoss: 0.10}), 2000, 0)
	}
	a, b := mk(1), mk(2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

func TestGilbertLossFractionAndBurstLength(t *testing.T) {
	for _, tc := range []struct {
		loss     float64
		burstLen float64
	}{
		{0.05, 2},
		{0.10, 3},
		{0.30, 4},
	} {
		p := New(Spec{Seed: 7, BurstLoss: tc.loss, MeanBurstLen: tc.burstLen})
		const n = 200_000
		drops, bursts, run := 0, 0, 0
		var burstSum int
		for i := 0; i < n; i++ {
			d := p.Decide(0)
			if d.Drop {
				drops++
				run++
				continue
			}
			if run > 0 {
				bursts++
				burstSum += run
				run = 0
			}
		}
		got := float64(drops) / n
		if math.Abs(got-tc.loss) > 0.02 {
			t.Errorf("loss %.4f, want ~%.2f", got, tc.loss)
		}
		meanBurst := float64(burstSum) / float64(bursts)
		if math.Abs(meanBurst-tc.burstLen) > 0.25*tc.burstLen {
			t.Errorf("mean burst %.2f, want ~%.1f", meanBurst, tc.burstLen)
		}
	}
}

func TestScriptedDrops(t *testing.T) {
	// One row per drop class: each drops packets 2 and 5 of 6, labels them
	// with its Kind and counts them in its own Injected field only.
	for _, tc := range []struct {
		name string
		spec Spec
		kind string
		want Injected
	}{
		{"packets", Spec{DropPackets: []uint64{2, 5}}, CounterDropScripted, Injected{DropScripted: 2}},
		{"windows", Spec{DropWindows: []IndexWindow{{From: 2, To: 2}, {From: 5, To: 5}}}, CounterDropFlap, Injected{DropFlap: 2}},
		{"flaps", Spec{Flaps: []Flap{{Start: 2, Len: 1}, {Start: 5, Len: 1}}}, CounterDropFlap, Injected{DropFlap: 2}},
		{"burst", Spec{BurstLoss: 1, DropPackets: []uint64{1, 3, 4, 6}}, CounterDropBurst, Injected{DropBurst: 2, DropScripted: 4}},
	} {
		tc.spec.Seed = 1
		p := New(tc.spec)
		want := map[int]bool{2: true, 5: true}
		var drops uint64
		for i := 1; i <= 6; i++ {
			d := p.Decide(time.Duration(i))
			if d.Drop {
				drops++
			}
			if want[i] && (!d.Drop || d.Kind != tc.kind) {
				t.Fatalf("%s packet %d: %+v, want drop of kind %q", tc.name, i, d, tc.kind)
			}
			if !want[i] && d.Drop && d.Kind == tc.kind {
				t.Fatalf("%s packet %d: unexpected %q drop", tc.name, i, d.Kind)
			}
		}
		if got := p.Injected(); got != tc.want || got.Drops() != drops {
			t.Fatalf("%s: injected %+v (drops %d), want %+v (drops %d)", tc.name, got, got.Drops(), tc.want, drops)
		}
	}
}

func TestFlapWindowDropsOnElapsedClock(t *testing.T) {
	p := New(Spec{Seed: 1, Flaps: []Flap{{Start: 10 * time.Millisecond, Len: 5 * time.Millisecond}}})
	for _, tc := range []struct {
		at   time.Duration
		drop bool
	}{
		{5 * time.Millisecond, false},
		{10 * time.Millisecond, true},
		{14 * time.Millisecond, true},
		{15 * time.Millisecond, false},
		{25 * time.Millisecond, false},
	} {
		d := p.Decide(tc.at)
		if d.Drop != tc.drop {
			t.Fatalf("at %v: drop=%v, want %v", tc.at, d.Drop, tc.drop)
		}
		if d.Drop && d.Kind != CounterDropFlap {
			t.Fatalf("at %v kind %q", tc.at, d.Kind)
		}
	}
}

func TestFlapDoesNotShiftProbabilisticSchedule(t *testing.T) {
	// Two plans, identical seeds; one has a flap window. Outside the
	// window every decision must match packet for packet — flaps consult
	// only the clock, never the RNG.
	plain := New(Spec{Seed: 9, BurstLoss: 0.2, DupProb: 0.1})
	flappy := New(Spec{Seed: 9, BurstLoss: 0.2, DupProb: 0.1,
		Flaps: []Flap{{Start: time.Millisecond, Len: time.Millisecond}}})
	for i := 0; i < 1000; i++ {
		elapsed := time.Duration(i) * 10 * time.Microsecond
		a, b := plain.Decide(elapsed), flappy.Decide(elapsed)
		if b.Kind == CounterDropFlap {
			continue // inside the window; plain has no flap to compare
		}
		if a != b {
			t.Fatalf("packet %d: %+v vs %+v", i+1, a, b)
		}
	}
}

func TestZeroSpecIsTransparent(t *testing.T) {
	p := New(Spec{Seed: 3})
	for i := 0; i < 1000; i++ {
		d := p.Decide(0)
		if d.Drop || d.Duplicate || d.CorruptBit >= 0 || d.Delay != 0 {
			t.Fatalf("packet %d faulted: %+v", i+1, d)
		}
	}
	if got := p.Injected(); got != (Injected{}) {
		t.Fatalf("injected %+v", got)
	}
	if p.Packets() != 1000 {
		t.Fatalf("packets %d", p.Packets())
	}
}

func TestProbabilisticFaultRates(t *testing.T) {
	p := New(Spec{Seed: 5, CorruptProb: 0.05, DupProb: 0.10, ReorderProb: 0.20})
	const n = 100_000
	var corrupt, dup, reorder int
	for i := 0; i < n; i++ {
		d := p.Decide(0)
		if d.CorruptBit >= 0 {
			corrupt++
		}
		if d.Duplicate {
			dup++
		}
		if d.Delay > 0 {
			reorder++
		}
	}
	check := func(name string, got int, want float64) {
		if math.Abs(float64(got)/n-want) > 0.01 {
			t.Errorf("%s rate %.4f, want ~%.2f", name, float64(got)/n, want)
		}
	}
	check("corrupt", corrupt, 0.05)
	check("dup", dup, 0.10)
	check("reorder", reorder, 0.20)
	want := Injected{Corrupt: uint64(corrupt), Duplicate: uint64(dup), Reorder: uint64(reorder)}
	if got := p.Injected(); got != want {
		t.Fatalf("injected %+v disagrees with observations %+v", got, want)
	}
}

func TestFlipBit(t *testing.T) {
	orig := []byte{0x00, 0x00, 0x00, 0x00}
	d := Decision{CorruptBit: 13} // byte 1, bit 5
	got := d.FlipBit(orig)
	if &got[0] == &orig[0] {
		t.Fatal("FlipBit mutated the original slice")
	}
	if orig[1] != 0 {
		t.Fatal("original modified")
	}
	if got[1] != 1<<5 || got[0] != 0 || got[2] != 0 || got[3] != 0 {
		t.Fatalf("flipped %v", got)
	}
	// Entropy beyond the packet's bit length wraps.
	d = Decision{CorruptBit: 32 + 3}
	if got := d.FlipBit(orig); got[0] != 1<<3 {
		t.Fatalf("wrap flip %v", got)
	}
	// No corruption: identity, same backing array.
	d = Decision{CorruptBit: -1}
	if got := d.FlipBit(orig); &got[0] != &orig[0] {
		t.Fatal("no-op FlipBit copied")
	}
	if got := (Decision{CorruptBit: 1}).FlipBit(nil); got != nil {
		t.Fatal("empty packet should pass through")
	}
}

func TestTotalLossIsAbsolute(t *testing.T) {
	p := New(Spec{Seed: 2, BurstLoss: 1})
	for i := 0; i < 100; i++ {
		if !p.Decide(0).Drop {
			t.Fatalf("packet %d survived BurstLoss=1", i+1)
		}
	}
}
