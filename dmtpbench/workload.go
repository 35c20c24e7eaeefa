package main

// workload is one set of inputs the benchmark runs. Each live workload
// uses at most two sender sockets, so the generator stays within the
// machine's CPUs; extra flows come from instrument slices, because the
// relay keys a flow on source address plus experiment ID and the
// experiment ID carries the slice.
type workload struct {
	name       string
	senders    int     // sender sockets
	slices     int     // instrument slices per sender; flows = senders × slices
	receivers  int     // receivers; a flow goes to receiver slice % receivers
	shards     int     // relay shards; 0 means GOMAXPROCS
	journal    bool    // relay write-ahead journal (see relayJournalSync)
	dropEveryN int     // relay-injected loss: every Nth sequenced packet per flow
	payload    int     // message bytes
	paceRate   float64 // open-loop phase rate, messages per second (aggregate)
	sim        bool    // simulated pilot instead of live sockets
}

// The workloads, and why each is here:
//
//   - tiny_1flow: at the smallest message per-packet cost dominates
//     (syscalls, Check, ReshapeInto, stamp, stash); no journal, no fan-in,
//     no loss, so changes to those paths should leave it flat.
//   - fanin8_journal: bytes, journal hand-off and group commit, flow
//     lookup and shard partitioning do the work here.
//   - lossy_2flow: the stash serves reads (ServeNAK) and trims beside
//     inserts, and the receiver's gap/NAK engine runs; DropEveryN keeps the
//     kernel batch path (fault middleware would demote it).
//   - sim_pilot: the only workload on sim/netsim/p4sim/core; the live
//     path does nothing here.
var workloads = []workload{
	{name: "tiny_1flow", senders: 1, slices: 1, receivers: 1, shards: 1, payload: 64, paceRate: 100e3},
	{name: "fanin8_journal", senders: 2, slices: 4, receivers: 2, journal: true, payload: 1024, paceRate: 50e3},
	{name: "lossy_2flow", senders: 1, slices: 2, receivers: 1, shards: 1, dropEveryN: 100, payload: 512, paceRate: 50e3},
	{name: "sim_pilot", sim: true, payload: 7680},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every workload with --trace 0.
var endToEndMetrics = []metricDef{
	{"delivered_msgs_per_s", "msg/s"},
	{"cpu_ns_per_msg", "ns"},
	{"delivered_ratio", "ratio"},
	{"lat_p50_us", "us"},
	{"mem_mb", "MB"},
	{"setup_s", "s"},
}

// perLayerMetrics are reported by every workload with --trace 1; a layer
// the workload does not exercise reads 0. The latency tail and the peak
// resident memory are here, not end-to-end: on a small shared VM, host
// preemption and GC timing move them by up to several times between
// runs, beyond any bound the run-to-run comparison could hold.
var perLayerMetrics = []metricDef{
	// Ladder rungs: one public call in isolation on the workload's packets.
	{"wire.encode_ns", "ns"},
	{"wire.check_ns", "ns"},
	{"wire.reshape_ns", "ns"},
	{"wire.reshape_alloc_ns", "ns"},
	{"dmtp.stamp_ns", "ns"},
	{"dmtp.shard_index_ns", "ns"},
	{"dmtp.stash_ns", "ns"},
	{"dmtp.trim_ns", "ns"},
	{"dmtp.rx_ingest_ns", "ns"},
	{"dmtp.serve_nak_ns", "ns"},
	{"journal.append_ns", "ns"},
	{"journal.replay_ns_per_entry", "ns"},
	{"sim.event_ns", "ns"},
	{"live.send_sink_ns", "ns"},
	{"ladder.cpu_ns_per_msg", "ns"},
	{"ladder.unattributed_ns", "ns"},
	// Recovery engine.
	{"dmtp.relay.retransmits_per_nak", "ratio"},
	{"dmtp.relay.nak_hit_ratio", "ratio"},
	{"dmtp.rx.recovered_per_nak", "ratio"},
	{"dmtp.rx.duplicates", "count"},
	{"dmtp.relay.stash_bytes_peak", "bytes"},
	{"lat_p99_us", "us"},
	{"recovery_p50_us", "us"},
	{"recovery_p99_us", "us"},
	// Journal.
	{"journal.appends_per_fsync", "ratio"},
	{"journal.pending_peak", "records"},
	// Kernel batch path.
	{"live.sender.send_ns_p50", "ns"},
	{"live.sender.send_ns_p99", "ns"},
	{"live.sender.pkts_per_syscall", "ratio"},
	{"live.relay.pkts_per_syscall", "ratio"},
	{"live.receiver.pkts_per_syscall", "ratio"},
	{"live.relay.gso_share", "ratio"},
	{"live.receiver.gro_share", "ratio"},
	{"live.fallback_ops", "count"},
	// Drop ledger, per million offered messages.
	{"drop.tx_error", "ppm"},
	{"drop.relay_rx", "ppm"},
	{"drop.flow_rejected", "ppm"},
	{"drop.injected", "ppm"},
	{"drop.receiver_rx", "ppm"},
	{"drop.written_off", "ppm"},
	{"drop.undetected", "ppm"},
	// Go runtime, per delivered message.
	{"go.alloc_bytes_per_msg", "bytes"},
	{"go.mallocs_per_msg", "count"},
	{"go.gc_pause_ms", "ms"},
	{"max_rss_mb", "MB"},
	// Traced run.
	{"trace.seg_tx_relay_us_p50", "us"},
	{"trace.seg_tx_relay_us_p99", "us"},
	{"trace.seg_relay_rx_us_p50", "us"},
	{"trace.seg_relay_rx_us_p99", "us"},
	{"trace.recovery_us_p50", "us"},
	{"bench.gen_lag_p99_us", "us"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.lat_samples", "count"},
}
