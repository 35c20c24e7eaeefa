package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dmtp"
	"repro/internal/journal"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

const (
	// window is the closed loop's bound on messages in flight across all
	// flows: sent but not yet delivered or written off.
	window = 1024
	// refill is how far the in-flight count must fall before a blocked
	// generator is woken, so it wakes once per several receive bursts, not
	// per message.
	refill = 256
	// expBase is sender 0's experiment number; sender s uses expBase+s.
	expBase = 0x5100
	// senderBatch is each sender's flush-ring depth: at the paced phase's
	// per-sender rates a ring of 8 fills before the 500 µs flush timer,
	// which the runtime may fire up to a millisecond late, so the paced
	// latency measures the pipeline rather than that timer.
	senderBatch = 8
	// ackInterval is how often receivers ACK, so the relay trims its stash
	// (and, journalled, recycles segments).
	ackInterval = 2 * time.Millisecond
	// relayJournalSync is the journalled relay's fsync policy. The journal
	// lives in the checkout, whose filesystem is whatever the machine
	// gives; without fsync the workload measures the journal's own CPU
	// path (framing, hand-off, group write, recycling) and not the disk,
	// as sync=batch on tmpfs would.
	relayJournalSync = journal.SyncNone
	// traceSample is the in-band FeatTraced sampling period of a traced run.
	traceSample = 64
	// setupReps is the least number of timed pipeline builds in a run,
	// after setupWarm untimed ones (the first build of a process pays for
	// first-touch memory and goroutine stacks). Builds go on until
	// setupFor has passed, so setup_s, their median, samples a second of
	// the host's state rather than the few milliseconds 101 builds take.
	setupReps = 101
	setupWarm = 10
	setupFor  = time.Second
	// latWindows splits the paced phase by due time; lat_p50_us is the
	// median of the windows' medians, so one scheduling hiccup moves one
	// window, not the run's figure.
	latWindows = 16
	// stallAfter ends a phase whose deliveries stopped advancing.
	stallAfter = 3 * time.Second
)

var epoch = time.Now()

// nowNs is monotonic nanoseconds since the process started.
func nowNs() int64 { return int64(time.Since(epoch)) }

// cpuNs is the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// sleepFor blocks the generator for about ns. time.Sleep rounds short
// sleeps up to about a millisecond on Linux (the runtime's poller waits
// in whole milliseconds), far coarser than the paced phase's
// inter-message gap; nanosleep wakes within the kernel's timer slack
// (~50 µs) and hands the goroutine's P to the pipeline meanwhile.
func sleepFor(ns int64) {
	if ns >= int64(2*time.Millisecond) {
		time.Sleep(time.Duration(ns))
		return
	}
	ts := syscall.NsecToTimespec(ns)
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just ends early
}

// maxRSSMB is the process's peak resident memory.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// pipeline is one live sender → relay → receiver set-up.
type pipeline struct {
	w      workload
	chk    *checker
	rcvs   []*live.Receiver
	relay  *live.Relay
	sends  []*live.Sender
	jdir   string
	tracer *tracespan.Collector
	reg    *metrics.Registry

	waiting atomic.Bool
	wakeCh  chan struct{}
}

var journalSeq int

// openPipeline builds receivers, the relay (opening its journal) and the
// senders, in that order. A traced pipeline samples in-band traces.
func openPipeline(opts options, chk *checker, traced bool) (*pipeline, error) {
	w := opts.workload
	p := &pipeline{w: w, chk: chk, wakeCh: make(chan struct{}, 1), reg: metrics.NewRegistry()}
	if traced {
		p.tracer = tracespan.NewCollector(0)
		dmtp.RegisterTraceMetrics(p.reg, p.tracer)
	}
	fail := func(err error) (*pipeline, error) {
		p.close()
		return nil, err
	}
	addrs := make([]string, w.receivers)
	for i := range addrs {
		r, err := live.NewReceiver(live.ReceiverConfig{
			Listen:      "127.0.0.1:0",
			AckInterval: ackInterval,
			Seed:        opts.seed + int64(i),
			Tracer:      p.tracer,
			OnMessage: func(m live.Message) {
				chk.deliver(p.flowOf(m.Experiment), m.Recovered, m.Payload, nowNs())
			},
			OnGap: func(wire.ExperimentID, uint64) { chk.writeOff() },
		})
		if err != nil {
			return fail(err)
		}
		p.rcvs = append(p.rcvs, r)
		addrs[i] = r.Addr()
	}
	cfg := live.RelayConfig{
		Listen: "127.0.0.1:0",
		Shards: relayShards(w),
		Resolver: func(_ wire.Addr, exp wire.ExperimentID) string {
			return addrs[int(exp.Slice())%len(addrs)]
		},
		DropEveryN: w.dropEveryN,
	}
	if w.journal {
		journalSeq++
		p.jdir = opts.scratch("journal", fmt.Sprintf("%d-%d", os.Getpid(), journalSeq))
		cfg.JournalDir, cfg.JournalSync = p.jdir, relayJournalSync
	}
	relay, err := live.NewRelay(cfg)
	if err != nil {
		return fail(err)
	}
	p.relay = relay
	relay.RegisterMetrics(p.reg)
	for s := 0; s < w.senders; s++ {
		sc := live.SenderConfig{Dst: relay.Addr(), Experiment: uint32(expBase + s), BatchSize: senderBatch}
		if traced {
			sc.TraceSample = traceSample
		}
		snd, err := live.NewSenderWithConfig(sc)
		if err != nil {
			return fail(err)
		}
		p.sends = append(p.sends, snd)
	}
	chk.wake = p.wake
	return p, nil
}

// flowOf maps a delivered message's experiment back to its flow, -1 if
// no flow has it.
func (p *pipeline) flowOf(exp wire.ExperimentID) int {
	s, slice := int(exp.Experiment())-expBase, int(exp.Slice())
	if s < 0 || s >= p.w.senders || slice >= p.w.slices {
		return -1
	}
	return s*p.w.slices + slice
}

func (p *pipeline) close() {
	for _, s := range p.sends {
		s.Close()
	}
	if p.relay != nil {
		p.relay.Close()
	}
	for _, r := range p.rcvs {
		r.Close()
	}
	if p.jdir != "" {
		os.RemoveAll(p.jdir)
	}
}

// wake unblocks a generator waiting for the window to refill.
func (p *pipeline) wake() {
	if p.waiting.Load() && p.chk.issued.Load()-p.chk.done.Load() <= window-refill {
		select {
		case p.wakeCh <- struct{}{}:
		default:
		}
	}
}

// send claims the next message and hands it to its flow's sender.
func (p *pipeline) send(bufs [][]byte) {
	idx := p.chk.issued.Load()
	flow := p.chk.flowOf(idx)
	buf := bufs[flow]
	binary.LittleEndian.PutUint64(buf, idx)
	p.chk.issued.Store(idx + 1) // receivers accept only issued indices
	// A failed send is counted in the sender's stats and the ledger's
	// tx_error class.
	_ = p.sends[flow/p.w.slices].Send(buf, uint8(flow%p.w.slices))
}

func (p *pipeline) payloads() [][]byte {
	bufs := make([][]byte, len(p.chk.tmpl))
	for f, t := range p.chk.tmpl {
		bufs[f] = append([]byte(nil), t...)
	}
	return bufs
}

// sample is one closed-loop window boundary.
type sample struct {
	at, cpu   int64
	delivered uint64
	memMB     float64
}

// residentMB is the memory the Go runtime holds from the OS and has not
// returned: heap, stacks and runtime metadata.
func residentMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}

// closedLoop keeps at most window messages in flight for warm+measure,
// recording a sample at every window boundary after the warm-up.
func (p *pipeline) closedLoop(warm, measure, every time.Duration) ([]sample, error) {
	bufs := p.payloads()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	start := nowNs()
	measureFrom := start + int64(warm)
	end := measureFrom + int64(measure)
	next := measureFrom
	var samples []sample
	for n := 0; ; n++ {
		if n%32 == 0 {
			now := nowNs()
			if now >= next {
				samples = append(samples, sample{at: now, cpu: cpuNs(), delivered: p.chk.delivered(), memMB: residentMB()})
				next += int64(every)
				if now >= end {
					return samples, nil
				}
			}
		}
		for p.chk.issued.Load()-p.chk.done.Load() >= window {
			p.waiting.Store(true)
			if p.chk.issued.Load()-p.chk.done.Load() < window {
				p.waiting.Store(false)
				break
			}
			timer.Reset(stallAfter)
			select {
			case <-p.wakeCh:
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
			case <-timer.C:
				p.waiting.Store(false)
				return samples, fmt.Errorf("closed loop stalled with %d messages in flight",
					p.chk.issued.Load()-p.chk.done.Load())
			}
			p.waiting.Store(false)
		}
		p.send(bufs)
	}
}

// pacedLoop offers n messages at rate per second from due times fixed in
// advance, and returns how late the generator sent each one, in ns. A
// traced run also returns each Send call's duration.
func (p *pipeline) pacedLoop(rate float64, n int, traced bool) (lag, sendNs []int64, sendAt []int64) {
	bufs := p.payloads()
	period := 1e9 / rate
	t0 := nowNs() + int64(time.Millisecond)
	p.chk.setPaced(p.chk.issued.Load(), n, t0, period, traced)
	lag = make([]int64, n)
	if traced {
		sendNs, sendAt = make([]int64, n), make([]int64, n)
	}
	for i := 0; i < n; {
		now := nowNs()
		due := t0 + int64(float64(i)*period)
		if now < due {
			sleepFor(due - now)
			continue
		}
		// Send everything that has fallen due.
		for ; i < n && t0+int64(float64(i)*period) <= now; i++ {
			lag[i] = now - (t0 + int64(float64(i)*period))
			if traced {
				s := nowNs()
				p.send(bufs)
				sendAt[i], sendNs[i] = s, nowNs()-s
				now = sendAt[i] + sendNs[i]
				continue
			}
			p.send(bufs)
		}
	}
	return lag, sendNs, sendAt
}

// drain ends a phase. The protocol has no end-of-stream packet, so a
// lost last message of a flow is revealed only by a later packet on that
// flow: drain sends stream-end markers on every flow, another every
// markerResend until one has arrived, then waits until every message and
// marker is delivered or written off — or until completions stop
// advancing with no receiver gap outstanding, since a loss before the
// relay sequences a packet is never revealed.
func (p *pipeline) drain() {
	const quiet = 300 * time.Millisecond
	const markerResend = 20 * time.Millisecond
	flows := len(p.chk.tmpl)
	bufs := p.payloads()
	lastMarker := make([]int64, flows)
	last, lastChange := p.chk.done.Load(), nowNs()
	for deadline := nowNs() + int64(10*time.Second); nowNs() < deadline; {
		arrived := 0
		for f := 0; f < flows; f++ {
			if p.chk.markerArrived(f) {
				arrived++
			} else if now := nowNs(); now-lastMarker[f] >= int64(markerResend) {
				p.chk.nextMarker(f, bufs[f])
				_ = p.sends[f/p.w.slices].Send(bufs[f], uint8(f%p.w.slices))
				lastMarker[f] = now
			}
		}
		time.Sleep(2 * time.Millisecond)
		if arrived < flows {
			continue
		}
		d := p.chk.done.Load()
		if _, lost := p.chk.markerCounts(); d == p.chk.issued.Load() && lost == 0 {
			return
		}
		if d != last {
			last, lastChange = d, nowNs()
			continue
		}
		if nowNs()-lastChange > int64(quiet) && p.outstandingGaps() == 0 {
			return
		}
	}
}

func (p *pipeline) outstandingGaps() int {
	n := 0
	for _, r := range p.rcvs {
		n += r.OutstandingGaps()
	}
	return n
}

// ledger gathers the hop counts once the pipeline is closed.
func (p *pipeline) ledger() ledger {
	c := p.chk
	l := ledger{offered: c.issued.Load(), tailMissing: c.tailMissing()}
	l.markers, l.markersLost = c.markerCounts()
	c.mu.Lock()
	l.distinct, l.callbacks, l.dups, l.markerCB = c.distinct, c.callbacks, c.dups, c.markerCB
	l.writtenOffCB, l.recoveredCB = c.writtenOff, c.recovered
	c.mu.Unlock()
	for _, s := range p.sends {
		st := s.Stats()
		l.sent += st.Sent
		l.txErr += st.SendErrors
	}
	rs := p.relay.Stats()
	l.upgraded, l.forwarded, l.injected = rs.Upgraded, rs.Forwarded, rs.InjectedDrops
	l.relayTxErr, l.retransmits = rs.TxErrors, rs.Retransmits
	l.rejected = p.relay.FlowStats().Rejected
	for _, r := range p.rcvs {
		st := r.Stats()
		l.received += st.Received
		l.delivered += st.Delivered
		l.duplicates += st.Duplicates
		l.recovered += st.Recovered
		l.writtenOff += st.PermanentLoss
	}
	return l
}

// passResult is what one pass over a pipeline measured.
type passResult struct {
	rate, cpuPerMsg  float64 // closed loop, medians over windows
	memMB            float64 // closed loop, median over window boundaries
	lat, recLat, lag []int64 // paced phase, ns
	latP50           float64 // paced phase, median over latWindows windows, us
	sendNs           []int64
	ledger           ledger
	allocPerMsg      float64
	mallocsPerMsg    float64
	gcPauseMs        float64
	stashPeak        int64
	pendingPeak      int64
	relayBatch       live.BatchStats
	senderBatch      live.BatchStats
	rcvBatch         live.BatchStats
	naks             uint64
	misses           uint64
	rxNAKs           uint64
	rxDuplicates     uint64
	traceSeg         [2][2]float64 // [tx→relay, relay→rx][p50, p99], us
	traceRecoveryP50 float64
}

// runPass runs the closed-loop phase, a drain, the paced phase and a
// final drain on p, then closes p and judges its ledger into res.
func runPass(opts options, p *pipeline, closed, paced time.Duration, traced bool, res *result) (*passResult, error) {
	w := opts.workload
	pr := &passResult{}
	var stop chan struct{}
	var wg sync.WaitGroup
	if traced {
		stop = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.samplePeaks(stop, &pr.stashPeak, &pr.pendingPeak)
		}()
	}
	warm := closed / 5
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	samples, err := p.closedLoop(warm, closed-warm, 250*time.Millisecond)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		res.fail(1, "%v", err)
	}
	var rates, cpus, mems []float64
	for _, s := range samples {
		mems = append(mems, s.memMB)
	}
	pr.memMB = median(mems)
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if d := b.delivered - a.delivered; d > 0 {
			rates = append(rates, float64(d)/(float64(b.at-a.at)/1e9))
			cpus = append(cpus, float64(b.cpu-a.cpu)/float64(d))
		}
	}

	pr.rate, pr.cpuPerMsg = median(rates), median(cpus)
	// The two reads bracket the warm-up too, so divide by every message
	// this pass delivered so far.
	if all := float64(p.chk.delivered()); all > 0 {
		pr.allocPerMsg = float64(ms1.TotalAlloc-ms0.TotalAlloc) / all
		pr.mallocsPerMsg = float64(ms1.Mallocs-ms0.Mallocs) / all
	}
	pr.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	p.drain()

	n := int(w.paceRate * paced.Seconds())
	var sendAt []int64
	pr.lag, pr.sendNs, sendAt = p.pacedLoop(w.paceRate, n, traced)
	p.drain()
	if traced {
		close(stop)
		wg.Wait()
	}
	// Every count below is final once the roles are closed.
	p.close()

	c := p.chk
	c.mu.Lock()
	var p50s []float64
	for wi := 0; wi < latWindows; wi++ {
		var win []int64
		for _, d := range c.lat[wi*len(c.lat)/latWindows : (wi+1)*len(c.lat)/latWindows] {
			if d >= 0 { // an undelivered message is a failure, counted by the ledger
				win = append(win, d)
			}
		}
		if len(win) > 0 {
			p50s = append(p50s, float64(quantile(win, 0.5))/1e3)
		}
		pr.lat = append(pr.lat, win...)
	}
	pr.latP50 = median(p50s)
	pr.recLat = append(pr.recLat, c.recLat...)
	deliverAt := c.deliverAt
	c.mu.Unlock()

	pr.ledger = p.ledger()
	rs := p.relay.Stats()
	pr.naks, pr.misses = rs.NAKs, rs.Misses
	for _, r := range p.rcvs {
		st := r.Stats()
		pr.rxNAKs += st.NAKsSent
		pr.rxDuplicates += st.Duplicates
		addBatch(&pr.rcvBatch, r.BatchStats())
	}
	for _, s := range p.sends {
		addBatch(&pr.senderBatch, s.BatchStats())
	}
	pr.relayBatch = p.relay.BatchStats()
	if traced {
		pr.traceFigures(p)
		if err := writeTraces(opts, p, c, sendAt, pr.sendNs, deliverAt); err != nil {
			return nil, err
		}
	}

	c.verdict(res)
	pr.ledger.judge(res)
	res.attempted += pr.ledger.offered
	d := pr.ledger.drops()
	res.failed += uint64(d["written_off"] + d["undetected"])
	return pr, nil
}

// samplePeaks records the relay's stash occupancy and journal flush lag
// peaks until stop closes.
func (p *pipeline) samplePeaks(stop chan struct{}, stashPeak, pendingPeak *int64) {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if b := int64(p.relay.BufferedBytes()); b > *stashPeak {
			*stashPeak = b
		}
		if p.w.journal {
			for _, s := range p.reg.Snapshot() {
				if s.Name == metrics.MetricJournalPending && s.Value > *pendingPeak {
					*pendingPeak = s.Value
				}
			}
		}
	}
}

// traceFigures reads the in-band trace histograms of a traced pass.
func (pr *passResult) traceFigures(p *pipeline) {
	for seg := 0; seg < 2; seg++ {
		h := p.reg.Histogram(fmt.Sprintf("%s%d", metrics.MetricTraceSegmentOWDPrefix, seg+1))
		pr.traceSeg[seg] = [2]float64{float64(h.Quantile(0.5)) / 1e3, float64(h.Quantile(0.99)) / 1e3}
	}
	pr.traceRecoveryP50 = float64(p.reg.Histogram(metrics.MetricTraceRecoveryNs).Quantile(0.5)) / 1e3
}

func addBatch(dst *live.BatchStats, s live.BatchStats) {
	dst.Syscalls += s.Syscalls
	dst.SentPackets += s.SentPackets
	dst.RecvPackets += s.RecvPackets
	dst.GSOSegments += s.GSOSegments
	dst.GROSplits += s.GROSplits
	dst.Fallbacks += s.Fallbacks
}

// setUp builds the pipeline setupWarm times untimed, then at least
// setupReps times and for at least setupFor, keeping the last; it
// returns the median time of the timed builds in seconds.
func setUp(opts options, chk *checker, traced bool) (*pipeline, float64, error) {
	var times []float64
	end := nowNs() + int64(setupFor)
	for i := -setupWarm; ; i++ {
		t := nowNs()
		p, err := openPipeline(opts, chk, traced)
		if err != nil {
			return nil, 0, err
		}
		if i >= 0 {
			times = append(times, float64(nowNs()-t)/1e9)
		}
		if i >= setupReps-1 && nowNs() >= end {
			return p, median(times), nil
		}
		p.close()
	}
}

// maxCheckedRate is the message rate the delivered-index bitset is
// reserved for: several times the fastest workload's rate on a 2-CPU
// machine. A faster run grows the rest of the bitset on the heap.
const maxCheckedRate = 4e6

// newRunChecker builds the checker of one measured pass.
func newRunChecker(opts options) *checker {
	w := opts.workload
	c := newChecker(w.senders*w.slices, w.payload, opts.seed)
	c.reserve(uint64(opts.seconds * maxCheckedRate))
	return c
}

// runLive runs a live workload. Untraced, it reports the end-to-end
// metrics of one pass. Traced, it runs an untraced pass, a traced pass
// and the ladder, and reports the per-layer metrics.
func runLive(opts options, res *result) error {
	total := time.Duration(opts.seconds * float64(time.Second))
	if !opts.trace {
		chk := newRunChecker(opts)
		p, setupS, err := setUp(opts, chk, false)
		if err != nil {
			return err
		}
		caps := capsNote(p)
		res.notes["caps"] = caps
		pr, err := runPass(opts, p, total*3/4, total/4, false, res)
		if err != nil {
			return err
		}
		caps["receiver"] = receiverCaps(pr)
		e := res.e2e
		e["delivered_msgs_per_s"] = pr.rate
		e["cpu_ns_per_msg"] = pr.cpuPerMsg
		e["delivered_ratio"] = float64(pr.ledger.distinct) / float64(pr.ledger.offered)
		e["lat_p50_us"] = pr.latP50
		e["mem_mb"] = pr.memMB
		e["setup_s"] = setupS
		res.notes["lat_samples"] = len(pr.lat)
		return nil
	}

	// Untraced pass: the reference for the trace overhead and the source
	// of the counter-based per-layer figures.
	chk := newRunChecker(opts)
	p, _, err := setUp(opts, chk, false)
	if err != nil {
		return err
	}
	caps := capsNote(p)
	res.notes["caps"] = caps
	plain, err := runPass(opts, p, total*3/10, total*2/10, false, res)
	if err != nil {
		return err
	}
	caps["receiver"] = receiverCaps(plain)
	chk = newRunChecker(opts)
	p, err = openPipeline(opts, chk, true)
	if err != nil {
		return err
	}
	traced, err := runPass(opts, p, total*3/10, total*2/10, true, res)
	if err != nil {
		return err
	}
	layerFromPasses(res.layer, plain, traced)
	return runLadder(opts, plain, res)
}

// capsNote records the kernel batch features each role probed to: runs
// are comparable only on the same kernel path.
func capsNote(p *pipeline) map[string]live.BatchCaps {
	return map[string]live.BatchCaps{
		"relay":  p.relay.BatchCaps(),
		"sender": p.sends[0].BatchCaps(),
	}
}

// receiverCaps reads which batch features the receivers used from their
// counters: a receiver exposes no BatchCaps of its own.
func receiverCaps(pr *passResult) live.BatchCaps {
	return live.BatchCaps{Mmsg: pr.rcvBatch.Syscalls > 0, GRO: pr.rcvBatch.GROSplits > 0}
}

// layerFromPasses fills the per-layer metrics that come from the live
// passes: counters from the untraced pass, span figures from the traced.
func layerFromPasses(m map[string]float64, plain, traced *passResult) {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	l := plain.ledger
	m["dmtp.relay.retransmits_per_nak"] = ratio(l.retransmits, plain.naks)
	m["dmtp.relay.nak_hit_ratio"] = ratio(l.retransmits, l.retransmits+plain.misses)
	m["dmtp.rx.recovered_per_nak"] = ratio(l.recovered, plain.rxNAKs)
	m["dmtp.rx.duplicates"] = float64(plain.rxDuplicates)
	m["dmtp.relay.stash_bytes_peak"] = float64(traced.stashPeak)
	m["lat_p99_us"] = float64(quantile(plain.lat, 0.99)) / 1e3
	m["recovery_p50_us"] = float64(quantile(plain.recLat, 0.5)) / 1e3
	m["recovery_p99_us"] = float64(quantile(plain.recLat, 0.99)) / 1e3
	m["journal.pending_peak"] = float64(traced.pendingPeak)
	m["live.sender.send_ns_p50"] = float64(quantile(traced.sendNs, 0.5))
	m["live.sender.send_ns_p99"] = float64(quantile(traced.sendNs, 0.99))
	m["live.sender.pkts_per_syscall"] = ratio(plain.senderBatch.SentPackets, plain.senderBatch.Syscalls)
	m["live.relay.pkts_per_syscall"] = ratio(plain.relayBatch.SentPackets+plain.relayBatch.RecvPackets, plain.relayBatch.Syscalls)
	m["live.receiver.pkts_per_syscall"] = ratio(plain.rcvBatch.RecvPackets+plain.rcvBatch.SentPackets, plain.rcvBatch.Syscalls)
	m["live.relay.gso_share"] = ratio(plain.relayBatch.GSOSegments, plain.relayBatch.SentPackets)
	m["live.receiver.gro_share"] = ratio(plain.rcvBatch.GROSplits, plain.rcvBatch.RecvPackets)
	m["live.fallback_ops"] = float64(plain.senderBatch.Fallbacks + plain.relayBatch.Fallbacks + plain.rcvBatch.Fallbacks)
	for class, v := range l.drops() {
		m["drop."+class] = float64(v) / float64(l.offered) * 1e6
	}
	m["go.alloc_bytes_per_msg"] = plain.allocPerMsg
	m["go.mallocs_per_msg"] = plain.mallocsPerMsg
	m["go.gc_pause_ms"] = plain.gcPauseMs
	m["trace.seg_tx_relay_us_p50"] = traced.traceSeg[0][0]
	m["trace.seg_tx_relay_us_p99"] = traced.traceSeg[0][1]
	m["trace.seg_relay_rx_us_p50"] = traced.traceSeg[1][0]
	m["trace.seg_relay_rx_us_p99"] = traced.traceSeg[1][1]
	m["trace.recovery_us_p50"] = traced.traceRecoveryP50
	m["bench.gen_lag_p99_us"] = float64(quantile(plain.lag, 0.99)) / 1e3
	if plain.cpuPerMsg > 0 {
		m["bench.trace_overhead_ratio"] = traced.cpuPerMsg / plain.cpuPerMsg
	}
	m["bench.lat_samples"] = float64(len(plain.lat))
	m["ladder.cpu_ns_per_msg"] = plain.cpuPerMsg
	m["max_rss_mb"] = maxRSSMB()
}
