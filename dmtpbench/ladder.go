package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"repro/internal/dmtp"
	"repro/internal/journal"
	"repro/internal/live"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The ladder: each rung calls one public function in isolation on the
// workload's packets (same payload size, same experiments and slices),
// reporting the median ns per operation over ladderReps timed calls.

const (
	ladderReps = 7
	ladderOps  = 2048 // operations per timed call
)

// upFeats is the feature set the live relay upgrades mode-0 packets to.
const upFeats = wire.FeatSequenced | wire.FeatReliable | wire.FeatAgeTracked | wire.FeatTimely | wire.FeatTimestamped

// sink keeps rung results alive so the compiler cannot drop the calls.
var sink int

// rung runs fn (which performs ops operations) once to warm up, then
// ladderReps times, and returns the median ns per operation.
func rung(ops int, fn func()) float64 {
	fn()
	var per []float64
	for i := 0; i < ladderReps; i++ {
		t := nowNs()
		fn()
		per = append(per, float64(nowNs()-t)/float64(ops))
	}
	return median(per)
}

type nopDatapath struct{}

func (nopDatapath) SendControl(wire.Addr, []byte) {}
func (nopDatapath) SendData(wire.Addr, []byte)    {}

// ladderPackets builds the workload's mode-0 packets, one per flow, and
// their upgraded forms.
func ladderPackets(w workload, chk *checker) (exps []wire.ExperimentID, raw, up []wire.View, err error) {
	for f, t := range chk.tmpl {
		exp := wire.NewExperimentID(uint32(expBase+f/max(w.slices, 1)), uint8(f%max(w.slices, 1)))
		h := wire.Header{Experiment: exp}
		pkt, err := h.AppendTo(nil)
		if err != nil {
			return nil, nil, nil, err
		}
		v := wire.View(append(pkt, t...))
		u, err := v.Reshape(1, upFeats)
		if err != nil {
			return nil, nil, nil, err
		}
		dmtp.StampUpgrade(u, 1, nowNs(), dmtp.Upgrade{Self: wire.AddrFrom(127, 0, 0, 1, 1)})
		exps, raw, up = append(exps, exp), append(raw, v), append(up, u)
	}
	return exps, raw, up, nil
}

// runLadder measures every rung and the unattributed remainder of the
// per-message CPU cost plain measured.
func runLadder(opts options, plain *passResult, res *result) error {
	w := opts.workload
	flows := max(w.senders*w.slices, 1)
	chk := newChecker(flows, w.payload, opts.seed)
	exps, raw, up, err := ladderPackets(w, chk)
	if err != nil {
		return err
	}
	m := res.layer
	nf := len(exps)

	buf := make([]byte, 0, len(raw[0])+64)
	m["wire.encode_ns"] = rung(ladderOps, func() {
		for i := 0; i < ladderOps; i++ {
			h := wire.Header{Experiment: exps[i%nf]}
			b, _ := h.AppendTo(buf[:0])
			b = append(b, chk.tmpl[i%nf]...)
			sink += len(b)
		}
	})
	// The relay checks each packet twice (burst partition, handling), the
	// receiver once more after the upgrade.
	m["wire.check_ns"] = rung(3*ladderOps, func() {
		for i := 0; i < ladderOps; i++ {
			n1, _ := raw[i%nf].Check()
			n2, _ := raw[i%nf].Check()
			n3, _ := up[i%nf].Check()
			sink += n1 + n2 + n3
		}
	})
	extLen, _ := upFeats.ExtLen()
	m["wire.reshape_ns"] = rung(ladderOps, func() {
		for i := 0; i < ladderOps; i++ {
			v := raw[i%nf]
			u, _ := v.ReshapeInto(wire.GetBuffer(len(v)+extLen), 1, upFeats)
			sink += len(u)
			wire.ReleaseBuffer(u)
		}
	})
	m["wire.reshape_alloc_ns"] = rung(ladderOps, func() {
		for i := 0; i < ladderOps; i++ {
			u, _ := raw[i%nf].Reshape(1, upFeats)
			sink += len(u)
		}
	})
	self := wire.AddrFrom(127, 0, 0, 1, 1)
	m["dmtp.stamp_ns"] = rung(ladderOps, func() {
		now := nowNs()
		for i := 0; i < ladderOps; i++ {
			dmtp.StampUpgrade(up[i%nf], uint64(i+1), now, dmtp.Upgrade{Self: self})
		}
	})
	sb := dmtp.NewShardedBuffer(relayShards(w), func(int) *dmtp.BufferEngine {
		return dmtp.NewBufferEngine(nopDatapath{}, dmtp.BufferConfig{})
	})
	m["dmtp.shard_index_ns"] = rung(ladderOps, func() {
		for i := 0; i < ladderOps; i++ {
			sink += sb.ShardIndex(exps[i%nf])
		}
	})
	m["dmtp.stash_ns"], m["dmtp.trim_ns"] = stashRungs(w, exps, up, plain.rate)
	m["dmtp.rx_ingest_ns"] = ingestRung(up)
	m["dmtp.serve_nak_ns"] = serveNAKRung(exps[0], up[0])
	if m["journal.append_ns"], m["journal.appends_per_fsync"], err = journalAppendRung(opts, exps, up); err != nil {
		return err
	}
	if m["journal.replay_ns_per_entry"], err = journalReplayRung(opts, exps, up); err != nil {
		return err
	}
	m["sim.event_ns"] = simEventRung()
	if m["live.send_sink_ns"], err = sendSinkRung(chk); err != nil {
		return err
	}

	// The rungs on one message's path: both substrates check it three
	// times, upgrade, stamp, stash and trim it, and ingest it.
	path := 3*m["wire.check_ns"] + m["dmtp.stamp_ns"] + m["dmtp.stash_ns"] + m["dmtp.trim_ns"] + m["dmtp.rx_ingest_ns"]
	if w.sim {
		path += m["wire.encode_ns"] + m["wire.reshape_alloc_ns"]
	} else {
		// The sender's batched send, and the relay's forward write, which
		// costs what the sender's does less the encode.
		path += 2*m["live.send_sink_ns"] - m["wire.encode_ns"] + m["wire.reshape_ns"] + m["dmtp.shard_index_ns"]
		if w.journal {
			path += m["journal.append_ns"]
		}
		if d := plain.ledger.distinct; d > 0 {
			path += m["dmtp.serve_nak_ns"] * float64(plain.naks) / float64(d)
		}
	}
	m["ladder.unattributed_ns"] = plain.cpuPerMsg - path
	return nil
}

// stashRungs time sequence assignment plus stash insert, and cumulative
// trim, on a sharded buffer like the relay's. Trims come at the
// receivers' ACK cadence for the rate the closed loop delivered, and
// leave the closed loop's window in the stash. Both are per message.
func stashRungs(w workload, exps []wire.ExperimentID, up []wire.View, rate float64) (stashNs, trimNs float64) {
	nf := len(exps)
	perAck := min(max(int(rate*ackInterval.Seconds()), 1), 1<<16)
	backlog := uint64(window / nf)
	total := max(4*ladderOps, 2*perAck)
	var stashT, trimT []float64
	for rep := 0; rep <= ladderReps; rep++ {
		sb := dmtp.NewShardedBuffer(relayShards(w), func(int) *dmtp.BufferEngine {
			return dmtp.NewBufferEngine(nopDatapath{}, dmtp.BufferConfig{})
		})
		var st, tt, count int64
		for count < int64(total) {
			t := nowNs()
			for i := count; i < count+int64(perAck); i++ {
				e := exps[i%int64(nf)]
				sb.Stash(e, sb.NextSeq(e), up[i%int64(nf)])
			}
			t2 := nowNs()
			for _, e := range exps {
				if s := sb.SeqOf(e); s > backlog {
					sb.Trim(e, s-backlog)
				}
			}
			st, tt, count = st+t2-t, tt+nowNs()-t2, count+int64(perAck)
		}
		if rep > 0 { // the first pass warms maps and order rings
			stashT = append(stashT, float64(st)/float64(count))
			trimT = append(trimT, float64(tt)/float64(count))
		}
	}
	return median(stashT), median(trimT)
}

// ingestRung times ReceiverEngine.Ingest of in-order upgraded packets,
// with the live receiver's settings and its default payload copy.
func ingestRung(up []wire.View) float64 {
	pkts := make([]wire.View, len(up))
	for i, u := range up {
		pkts[i] = u.Clone()
	}
	eng := dmtp.NewReceiverEngine(dmtp.NewFakeClock(1), nopDatapath{}, dmtp.ReceiverConfig{
		NAKDelay: 2 * time.Millisecond, NAKRetry: 20 * time.Millisecond, NAKRetryMax: 500 * time.Millisecond,
		MaxNAKs: 5, Deliver: func(m dmtp.Message) { sink += len(m.Payload) },
	})
	seqs := make([]uint64, len(pkts))
	return rung(ladderOps, func() {
		for i := 0; i < ladderOps; i++ {
			f := i % len(pkts)
			seqs[f]++
			_ = pkts[f].SetSeq(seqs[f])
			eng.Ingest(pkts[f])
		}
	})
}

// serveNAKRung times BufferEngine.ServeNAK for single-message gaps (the
// shape DropEveryN loss produces) against a warm stash.
func serveNAKRung(exp wire.ExperimentID, up wire.View) float64 {
	const stashed = 4096
	b := dmtp.NewBufferEngine(nopDatapath{}, dmtp.BufferConfig{})
	for i := 0; i < stashed; i++ {
		b.Stash(exp, b.NextSeq(exp), up)
	}
	nak := &wire.NAK{Experiment: exp, Requester: wire.AddrFrom(127, 0, 0, 1, 2), Ranges: []wire.SeqRange{{}}}
	return rung(ladderOps, func() {
		for i := 0; i < ladderOps; i++ {
			s := uint64(i%stashed) + 1
			nak.Ranges[0] = wire.SeqRange{From: s, To: s}
			b.ServeNAK(nak)
		}
	})
}

// journalAppendRung times Journal.Append with the relay's sync policy,
// including the writer's drain: each timed call ends with a Flush
// barrier, so the figure is the journal's sustained cost per record.
// Periodic TrimTo lets segments recycle, as the relay's ACK-driven trims
// do. A second, untimed pass with sync=batch counts how many appends one
// group-committed fsync covers.
func journalAppendRung(opts options, exps []wire.ExperimentID, up []wire.View) (ns, perFsync float64, err error) {
	run := func(sync string, timed bool) (float64, journal.Stats, error) {
		dir := opts.scratch(fmt.Sprintf("ladder-journal-%d", os.Getpid()))
		defer os.RemoveAll(dir)
		j, _, err := journal.Open(journal.Options{Dir: dir, Sync: sync})
		if err != nil {
			return 0, journal.Stats{}, err
		}
		nf := len(exps)
		seqs := make([]uint64, nf)
		backlog := uint64(window / nf)
		appendAll := func() {
			for i := 0; i < ladderOps; i++ {
				f := i % nf
				seqs[f]++
				j.Append(exps[f], seqs[f], up[f])
				if seqs[f]%256 == 0 && seqs[f] > backlog {
					j.TrimTo(exps[f], seqs[f]-backlog)
				}
			}
			j.Flush()
		}
		var ns float64
		if timed {
			ns = rung(ladderOps, appendAll)
		} else {
			appendAll()
		}
		st := j.Stats()
		return ns, st, j.Close()
	}
	if ns, _, err = run(relayJournalSync, true); err != nil {
		return 0, 0, err
	}
	_, st, err := run(journal.SyncBatch, false)
	if err != nil {
		return 0, 0, err
	}
	if st.Fsyncs > 0 {
		perFsync = float64(st.Appends) / float64(st.Fsyncs)
	}
	return ns, perFsync, nil
}

// journalReplayRung times journal.Open over a pre-written journal,
// per replayed entry.
func journalReplayRung(opts options, exps []wire.ExperimentID, up []wire.View) (float64, error) {
	dir := opts.scratch(fmt.Sprintf("replay-journal-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNone})
	if err != nil {
		return 0, err
	}
	for i := 0; i < 2*ladderOps; i++ {
		f := i % len(exps)
		j.Append(exps[f], uint64(i/len(exps)+1), up[f])
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	var per []float64
	for i := 0; i < ladderReps; i++ {
		t := nowNs()
		j, rec, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNone})
		if err != nil {
			return 0, err
		}
		d := nowNs() - t
		if rec.Replayed == 0 {
			j.Close()
			return 0, fmt.Errorf("journal replay rung recovered nothing")
		}
		per = append(per, float64(d)/float64(rec.Replayed))
		if err := j.Close(); err != nil {
			return 0, err
		}
	}
	return median(per), nil
}

// simEventRung times sim.Loop: schedule an event with At, run it with Step.
func simEventRung() float64 {
	l := sim.NewLoop()
	fn := func() { sink++ }
	return rung(ladderOps, func() {
		for i := 0; i < ladderOps; i++ {
			l.At(l.Now().Add(time.Duration(i+1)), fn)
		}
		for l.Step() {
		}
	})
}

// sendSinkRung times batched Sender.Send into a bound socket nobody
// reads: the sender's own cost, encode plus its share of sendmmsg.
func sendSinkRung(chk *checker) (float64, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	snd, err := live.NewSenderWithConfig(live.SenderConfig{
		Dst: conn.LocalAddr().String(), Experiment: expBase, BatchSize: senderBatch,
	})
	if err != nil {
		return 0, err
	}
	defer snd.Close()
	nf := len(chk.tmpl)
	return rung(ladderOps, func() {
		for i := 0; i < ladderOps; i++ {
			_ = snd.Send(chk.tmpl[i%nf], uint8(i%nf))
		}
	}), nil
}

// relayShards is the relay's shard count for w.
func relayShards(w workload) int {
	if w.shards > 0 {
		return w.shards
	}
	return runtime.GOMAXPROCS(0)
}
