package main

import (
	"runtime"
	"time"

	"repro/internal/pilot"
)

const (
	// simMessages is one pilot run's detector stream: the pilot study's
	// default length.
	simMessages = 2000
	// simWANLoss is the pilot WAN's random loss, so recovery runs.
	simWANLoss = 1e-3
	// simMarkers closes each pilot stream: the protocol has no
	// end-of-stream packet, so a lost last message is revealed only by a
	// later one. Each run emits simMessages+simMarkers messages and the
	// last simMarkers are stream-end markers, not offered messages; all
	// of them would have to be lost for a real message's loss to go
	// unseen.
	simMarkers = 3
)

// simPass is what a sequence of pilot runs measured.
type simPass struct {
	rates, cpus []float64 // per run, the first (warm-up) run left out
	turnaround  []int64   // wall time per run, ns
	memMB       []float64 // resident memory after each run
	spans       []span    // traced pass: one span per run

	sent, distinct, lost, unseen, recovered, naks, retransmits uint64 // offered messages, markers left out
	stashPeak                                                  int
	allocPerMsg, mallocsPerMsg, gcPauseMs                      float64
}

// runSim runs the simulated pilot (sensor → p4sim mode changer →
// core.BufferNode → receiver over netsim) back to back, each run with
// its own seed derived from the workload seed.
func runSim(opts options, res *result) error {
	var setups []float64
	end := nowNs() + int64(setupFor)
	for i := -setupWarm; i < setupReps || nowNs() < end; i++ {
		// A one-message pilot is almost all topology construction.
		t := nowNs()
		if _, err := pilot.Run(simConfig(opts, -1-setupWarm-i, 1)); err != nil {
			return err
		}
		if i >= 0 {
			setups = append(setups, float64(nowNs()-t)/1e9)
		}
	}
	total := time.Duration(opts.seconds * float64(time.Second))
	if !opts.trace {
		sp, err := runSimPass(opts, total, 0, false, res)
		if err != nil {
			return err
		}
		e := res.e2e
		e["delivered_msgs_per_s"] = median(sp.rates)
		e["cpu_ns_per_msg"] = median(sp.cpus)
		e["delivered_ratio"] = float64(sp.distinct) / float64(sp.sent)
		// The simulator's user waits for a whole pilot run: its latency
		// is the wall-clock turnaround of one run.
		e["lat_p50_us"] = float64(quantile(sp.turnaround, 0.5)) / 1e3
		e["mem_mb"] = median(sp.memMB)
		e["setup_s"] = median(setups)
		res.notes["lat_samples"] = len(sp.turnaround)
		return nil
	}
	plain, err := runSimPass(opts, total/2, 0, false, res)
	if err != nil {
		return err
	}
	traced, err := runSimPass(opts, total/2, len(plain.turnaround), true, res)
	if err != nil {
		return err
	}
	if err := writeSpans(opts.scratch("traces", fileStem(opts)+"-bench.json"), traced.spans); err != nil {
		return err
	}
	m := res.layer
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["dmtp.relay.retransmits_per_nak"] = ratio(plain.retransmits, plain.naks)
	m["dmtp.rx.recovered_per_nak"] = ratio(plain.recovered, plain.naks)
	m["dmtp.relay.stash_bytes_peak"] = float64(plain.stashPeak)
	m["drop.written_off"] = ratio(plain.lost, plain.sent) * 1e6
	m["drop.undetected"] = ratio(plain.unseen, plain.sent) * 1e6
	m["go.alloc_bytes_per_msg"] = plain.allocPerMsg
	m["go.mallocs_per_msg"] = plain.mallocsPerMsg
	m["go.gc_pause_ms"] = plain.gcPauseMs
	cpu := median(plain.cpus)
	if cpu > 0 {
		m["bench.trace_overhead_ratio"] = median(traced.cpus) / cpu
	}
	m["lat_p99_us"] = float64(quantile(plain.turnaround, 0.99)) / 1e3
	m["bench.lat_samples"] = float64(len(plain.turnaround))
	m["ladder.cpu_ns_per_msg"] = cpu
	m["max_rss_mb"] = maxRSSMB()
	return runLadder(opts, &passResult{rate: median(plain.rates), cpuPerMsg: cpu}, res)
}

func simConfig(opts options, run, messages int) pilot.Config {
	return pilot.Config{
		Seed:         opts.seed*1_000_003 + int64(run),
		Messages:     uint64(messages),
		MessageBytes: opts.workload.payload,
		WANLoss:      simWANLoss,
	}
}

// runSimPass runs pilots for dur, numbering their seeds from first, and
// checks each: the source emitted its stream, every distinct message was
// delivered once, and nothing was written off or lost unseen.
func runSimPass(opts options, dur time.Duration, first int, traced bool, res *result) (*simPass, error) {
	sp := &simPass{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	end := nowNs() + int64(dur)
	for i := first; i == first || nowNs() < end; i++ {
		t, cpu := nowNs(), cpuNs()
		r, err := pilot.Run(simConfig(opts, i, simMessages+simMarkers))
		if err != nil {
			return nil, err
		}
		// Nothing after the last received message was received, and
		// every loss before it was revealed: it was recovered or written
		// off. So the undelivered messages nothing revealed are the last
		// unseen of the stream, markers first.
		var unseen uint64
		if r.Distinct+r.Lost <= r.Sent {
			unseen = r.Sent - r.Distinct - r.Lost
		}
		markers := simMarkers - min(unseen, simMarkers)
		distinct := r.Distinct - min(markers, r.Distinct)
		wall, cpuD := nowNs()-t, cpuNs()-cpu
		if traced {
			sp.spans = append(sp.spans, span{name: "pilot.Run", id: uint64(i), start: t, end: t + wall})
		}
		if i > first && distinct > 0 {
			sp.rates = append(sp.rates, float64(distinct)/(float64(wall)/1e9))
			sp.cpus = append(sp.cpus, float64(cpuD)/float64(distinct))
		}
		sp.turnaround = append(sp.turnaround, wall)
		sp.memMB = append(sp.memMB, residentMB())
		sp.sent += simMessages
		sp.distinct += distinct
		sp.lost += r.Lost
		sp.unseen += unseen - min(unseen, simMarkers)
		sp.recovered += r.Recovered
		sp.naks += r.NAKs
		sp.retransmits += r.Retransmits
		sp.stashPeak = max(sp.stashPeak, r.BufferPeak)
		res.attempted += simMessages
		if want := uint64(simMessages + simMarkers); r.Sent != want {
			res.fail(max(r.Sent, want)-min(r.Sent, want), "pilot run %d emitted %d of %d messages", i, r.Sent, want)
		}
		if r.Delivered != r.Distinct {
			res.fail(r.Delivered-r.Distinct, "pilot run %d delivered %d messages but only %d distinct", i, r.Delivered, r.Distinct)
		}
		if r.Distinct+r.Lost > r.Sent {
			res.fail(1, "pilot run %d ledger: %d distinct + %d written off > %d sent", i, r.Distinct, r.Lost, r.Sent)
		} else if distinct < simMessages {
			// Written-off gaps (a written-off marker counts against the
			// messages too) and losses no later packet revealed.
			res.failed += simMessages - distinct
		}
	}
	runtime.ReadMemStats(&ms1)
	if sp.distinct > 0 {
		sp.allocPerMsg = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(sp.distinct)
		sp.mallocsPerMsg = float64(ms1.Mallocs-ms0.Mallocs) / float64(sp.distinct)
	}
	sp.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return sp, nil
}
