package journal

import (
	"fmt"
	"testing"

	"repro/internal/wire"
)

// benchAppend drives the hot-path append at a fixed payload size under
// one sync policy. Periodic trims let segment recycling bound disk use,
// so long -benchtime runs don't fill the filesystem; the closing Flush
// puts the writer's backlog inside the measured window, making ns/op an
// honest end-to-end figure rather than a staging-copy figure.
func benchAppend(b *testing.B, sync string, payloadLen int) {
	j, _, err := Open(Options{Dir: b.TempDir(), Shard: 0, Sync: sync})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	exp := wire.ExperimentID(1)
	b.ReportAllocs()
	b.SetBytes(int64(payloadLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		j.Append(exp, seq, payload)
		if seq%4096 == 0 {
			j.TrimTo(exp, seq)
		}
	}
	j.Flush()
}

// BenchmarkJournalAppend is the headline figure: the default batch-fsync
// policy at a DAQ-sized payload. CI runs a short smoke of it on tmpfs.
func BenchmarkJournalAppend(b *testing.B) { benchAppend(b, SyncBatch, 512) }

// BenchmarkJournalAppendSyncNone isolates framing + file-write cost from
// fsync cost (the write barrier still runs; durability is left to the OS).
func BenchmarkJournalAppendSyncNone(b *testing.B) { benchAppend(b, SyncNone, 512) }

// BenchmarkJournalAppendSizes sweeps payload size under the default
// policy, showing where framing overhead stops mattering.
func BenchmarkJournalAppendSizes(b *testing.B) {
	for _, n := range []int{64, 512, 1400} {
		b.Run(fmt.Sprintf("payload=%d", n), func(b *testing.B) {
			benchAppend(b, SyncBatch, n)
		})
	}
}
