package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestChecksCanFail runs the self-tests every benchmark run starts with:
// a ledger hiding a drop class, a duplicated delivery, an out-of-order
// delivery and an unsent index must each be reported.
func TestChecksCanFail(t *testing.T) {
	for _, p := range selfTestProblems() {
		t.Error(p)
	}
}

// TestLedgerCatchesHiddenInjectedDrops checks the lossy workload's
// shape directly: a ledger that leaves out the relay's injected drops
// does not close, and neither does one that loses a delivery.
func TestLedgerCatchesHiddenInjectedDrops(t *testing.T) {
	l := ledger{
		offered: 500, sent: 500, upgraded: 500, forwarded: 495, injected: 5,
		retransmits: 5, received: 500, delivered: 500, callbacks: 500, distinct: 500,
		recovered: 5, recoveredCB: 5,
	}
	if v := l.violations(""); len(v) > 0 {
		t.Fatalf("balanced ledger reported %v", v)
	}
	if len(l.violations("injected")) == 0 {
		t.Error("ledger without drop.injected still closes")
	}
	l.callbacks, l.distinct = 499, 499
	if len(l.violations("")) == 0 {
		t.Error("ledger with a delivery missing from the application still closes")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the benchmark's tables in
// step: every workload and metric the file names is one this program
// runs and reports, with the same unit.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if got, want := names, workloadNames(); len(got) != len(want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
				break
			}
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestDrainRevealsLostTail drops the last message of a flow at the
// relay — no later message reveals it — and checks that the drain's
// stream-end markers get it NAKed and recovered, and that the ledger
// closes with the markers in it.
func TestDrainRevealsLostTail(t *testing.T) {
	w := workload{name: "tail", senders: 1, slices: 2, receivers: 1, shards: 1, dropEveryN: 50, payload: 64}
	chk := newChecker(2, w.payload, 1)
	p, err := openPipeline(options{workload: w, seed: 1, root: t.TempDir()}, chk, false)
	if err != nil {
		t.Fatal(err)
	}
	bufs := p.payloads()
	for i := 0; i < 100; i++ { // 50 per flow: each flow's last is dropped
		p.send(bufs)
	}
	p.drain()
	p.close()
	l := p.ledger()
	if l.distinct != 100 || l.injected < 2 || l.recovered < 2 {
		t.Errorf("distinct %d of 100, injected %d, recovered %d", l.distinct, l.injected, l.recovered)
	}
	if l.markerCB == 0 {
		t.Error("no stream-end marker was delivered")
	}
	if v := l.violations(""); len(v) > 0 {
		t.Errorf("ledger does not close: %v", v)
	}
	r := newResult()
	chk.verdict(r)
	for _, prob := range r.problems {
		t.Error(prob)
	}
}
