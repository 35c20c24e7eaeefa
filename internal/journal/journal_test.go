package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

const testExp = wire.ExperimentID(0x01020304)

// payload builds a deterministic test payload.
func payload(seq uint64, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seq) + byte(i)
	}
	return p
}

// frameRecord frames one record into a buffer of its own.
func frameRecord(typ byte, exp wire.ExperimentID, seq uint64, p []byte) []byte {
	return appendRecord(nil, typ, exp, seq, p)
}

// openT opens a journal in dir, failing the test on error.
func openT(t *testing.T, opts Options) (*Journal, *Recovered) {
	t.Helper()
	j, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, rec
}

func checkBalance(t *testing.T, rec *Recovered) {
	t.Helper()
	if rec.Appended-rec.Tombstoned != rec.Replayed {
		t.Fatalf("replay balance broken: appended %d − tombstoned %d ≠ replayed %d",
			rec.Appended, rec.Tombstoned, rec.Replayed)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := openT(t, Options{Dir: dir})
	if rec.Replayed != 0 || len(rec.Entries) != 0 {
		t.Fatalf("fresh journal recovered %d entries", rec.Replayed)
	}
	for seq := uint64(1); seq <= 8; seq++ {
		j.Append(testExp, seq, payload(seq, 128))
	}
	j.Tombstone(testExp, 5) // capacity eviction
	j.TrimTo(testExp, 2)    // cumulative ACK covers 1, 2
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rec2 := openT(t, Options{Dir: dir})
	defer j2.Close()
	checkBalance(t, rec2)
	if got, want := rec2.Replayed, uint64(5); got != want {
		t.Fatalf("replayed %d entries, want %d", got, want)
	}
	wantSeqs := []uint64{3, 4, 6, 7, 8}
	for i, e := range rec2.Entries {
		if e.Exp != testExp || e.Seq != wantSeqs[i] {
			t.Fatalf("entry %d = (exp %d, seq %d), want seq %d", i, e.Exp, e.Seq, wantSeqs[i])
		}
		if !bytes.Equal(e.Payload, payload(e.Seq, 128)) {
			t.Fatalf("entry seq %d payload mismatch", e.Seq)
		}
	}
	if got := rec2.Seqs[testExp]; got != 8 {
		t.Fatalf("sequence floor %d, want 8", got)
	}
	if got := rec2.Trims[testExp]; got != 2 {
		t.Fatalf("trim floor %d, want 2", got)
	}
	if rec2.TruncatedTail {
		t.Fatal("clean journal reported a torn tail")
	}
}

func TestJournalReappendAfterTombstoneKeepsOrder(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir})
	for seq := uint64(1); seq <= 3; seq++ {
		j.Append(testExp, seq, payload(seq, 32))
	}
	j.Tombstone(testExp, 2)
	j.Append(testExp, 2, payload(2, 64)) // re-stash: must land after 3
	j.Close()

	j2, rec := openT(t, Options{Dir: dir})
	defer j2.Close()
	checkBalance(t, rec)
	var seqs []uint64
	for _, e := range rec.Entries {
		seqs = append(seqs, e.Seq)
	}
	want := []uint64{1, 3, 2}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("replay order %v, want %v", seqs, want)
		}
	}
	if len(rec.Entries[2].Payload) != 64 {
		t.Fatalf("re-appended entry replayed the stale payload (%d bytes)", len(rec.Entries[2].Payload))
	}
}

// TestJournalTornTailEveryOffset truncates the journal at every byte
// offset inside the final record and asserts recovery truncates the torn
// tail cleanly and replays exactly the intact records.
func TestJournalTornTailEveryOffset(t *testing.T) {
	base := t.TempDir()
	j, _ := openT(t, Options{Dir: base})
	for seq := uint64(1); seq <= 4; seq++ {
		j.Append(testExp, seq, payload(seq, 48))
	}
	j.Close()
	segPath := filepath.Join(base, segFileName(0, 0))
	whole, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	recLen := RecOverhead + 48
	lastStart := len(whole) - recLen

	for cut := lastStart + 1; cut < len(whole); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segFileName(0, 0)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rec := openT(t, Options{Dir: dir})
		if !rec.TruncatedTail {
			t.Fatalf("cut at %d: torn tail not detected", cut)
		}
		checkBalance(t, rec)
		if got, want := rec.Replayed, uint64(3); got != want {
			t.Fatalf("cut at %d: replayed %d, want %d", cut, got, want)
		}
		if got := rec.Seqs[testExp]; got != 3 {
			t.Fatalf("cut at %d: sequence floor %d, want 3", cut, got)
		}
		if fi, err := os.Stat(filepath.Join(dir, segFileName(0, 0))); err != nil || fi.Size() != int64(lastStart) {
			t.Fatalf("cut at %d: torn segment not truncated to %d (size %d, err %v)", cut, lastStart, fi.Size(), err)
		}
		// The journal must be writable after a torn-tail recovery.
		j2.Append(testExp, 4, payload(4, 48))
		j2.Close()
		j3, rec3 := openT(t, Options{Dir: dir})
		if rec3.Replayed != 4 {
			t.Fatalf("cut at %d: post-recovery append lost (replayed %d)", cut, rec3.Replayed)
		}
		j3.Close()
	}

	// A cut at the exact record boundary is not torn — just a shorter log.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segFileName(0, 0)), whole[:lastStart], 0o644); err != nil {
		t.Fatal(err)
	}
	j4, rec4 := openT(t, Options{Dir: dir})
	defer j4.Close()
	if rec4.TruncatedTail {
		t.Fatal("boundary cut misreported as torn")
	}
	if rec4.Replayed != 3 {
		t.Fatalf("boundary cut replayed %d, want 3", rec4.Replayed)
	}
}

// TestJournalSegmentRecycling drives sustained append + trim through a
// tiny segment size and asserts fully-trimmed segments are deleted while
// the sequence floor survives recycling.
func TestJournalSegmentRecycling(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, SegmentBytes: 2048})
	const n = 200
	for seq := uint64(1); seq <= n; seq++ {
		j.Append(testExp, seq, payload(seq, 96))
		if seq%10 == 0 {
			j.TrimTo(testExp, seq-5)
			j.Flush()
		}
	}
	j.TrimTo(testExp, n)
	j.Flush()
	// One more batch cycle so the final trim's recycle pass runs.
	j.Append(testExp, n+1, payload(n+1, 96))
	j.Flush()
	st := j.Stats()
	if st.SegmentsRecycled == 0 {
		t.Fatalf("no segments recycled after sustained trim (stats %+v)", st)
	}
	segs, err := j.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 3 {
		t.Fatalf("%d segment files survive full trim, want the recycler to keep up", len(segs))
	}
	j.Close()

	j2, rec := openT(t, Options{Dir: dir})
	defer j2.Close()
	checkBalance(t, rec)
	if got := rec.Seqs[testExp]; got != n+1 {
		t.Fatalf("sequence floor %d after recycling, want %d — recycling lost the counters", got, n+1)
	}
	if rec.Replayed != 1 || rec.Entries[0].Seq != n+1 {
		t.Fatalf("replayed %d entries, want exactly the untrimmed seq %d", rec.Replayed, n+1)
	}
}

// TestJournalReplayAfterProcessCrash exercises the in-process crash
// path: Flush + Replay on a live journal, no reopen.
func TestJournalReplayAfterProcessCrash(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir})
	defer j.Close()
	for seq := uint64(1); seq <= 6; seq++ {
		j.Append(testExp, seq, payload(seq, 64))
	}
	j.TrimTo(testExp, 1)
	rec, err := j.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	checkBalance(t, rec)
	if rec.Replayed != 5 {
		t.Fatalf("replayed %d, want 5", rec.Replayed)
	}
	if got := j.Stats().Replayed; got != 5 {
		t.Fatalf("stats.Replayed = %d, want 5", got)
	}
}

// TestReplayDropBiasBreaksBalance proves the deliberately-broken replay
// hook violates the appended − tombstoned == replayed invariant — the
// property the campaign's journal oracle self-test relies on.
func TestReplayDropBiasBreaksBalance(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir})
	defer j.Close()
	for seq := uint64(1); seq <= 10; seq++ {
		j.Append(testExp, seq, payload(seq, 32))
	}
	ReplayDropBias = 3
	defer func() { ReplayDropBias = 0 }()
	rec, err := j.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rec.Appended-rec.Tombstoned == rec.Replayed {
		t.Fatal("broken replay still balances — the oracle self-test would be vacuous")
	}
}

func TestJournalRejectsMidSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, SegmentBytes: 512})
	for seq := uint64(1); seq <= 40; seq++ {
		j.Append(testExp, seq, payload(seq, 64))
	}
	j.Close()
	segs := listTestSegments(t, dir)
	if len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %d", len(segs))
	}
	// Flip a payload byte mid-way through the first segment.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[SegHeaderLen+RecHeaderLen+3] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted mid-journal corruption")
	}
}

func TestJournalSyncPolicies(t *testing.T) {
	for _, sync := range []string{SyncBatch, SyncNone, SyncAlways} {
		dir := t.TempDir()
		j, _ := openT(t, Options{Dir: dir, Sync: sync})
		for seq := uint64(1); seq <= 5; seq++ {
			j.Append(testExp, seq, payload(seq, 64))
		}
		j.Flush()
		if got := j.Pending(); got != 0 {
			t.Fatalf("sync=%s: Pending() = %d after Flush, want 0", sync, got)
		}
		j.Close()
		j2, rec := openT(t, Options{Dir: dir, Sync: sync})
		if rec.Replayed != 5 {
			t.Fatalf("sync=%s: replayed %d, want 5", sync, rec.Replayed)
		}
		st := j2.Stats()
		j2.Close()
		if sync == SyncNone && st.Fsyncs != 0 {
			// Stats are per-journal; the reopened journal has done no
			// appends yet, so this only sanity-checks the policy plumbed.
			t.Fatalf("sync=none journal counted %d fsyncs before any write", st.Fsyncs)
		}
	}
	// SyncNone never fsyncs, segment rolls included.
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, Sync: SyncNone, SegmentBytes: 1024})
	for seq := uint64(1); seq <= 64; seq++ {
		j.Append(testExp, seq, payload(seq, 64))
		if seq%8 == 0 {
			j.Flush()
		}
	}
	if segs := listTestSegments(t, dir); len(segs) < 3 {
		t.Fatalf("sync=none journal rolled %d segments, want ≥2", len(segs)-1)
	}
	if got := j.Stats().Fsyncs; got != 0 {
		t.Fatalf("sync=none journal fsynced %d times across segment rolls, want 0", got)
	}
	j.Close()
	if _, _, err := Open(Options{Dir: t.TempDir(), Sync: "sometimes"}); err == nil {
		t.Fatal("Open accepted an unknown sync policy")
	}
}

func TestOpenSetShardsAreIndependent(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSet(dir, 3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Shard(0).Append(testExp, 1, payload(1, 32))
	s.Shard(2).Append(testExp+1, 7, payload(7, 32))
	s.Flush()
	recs, err := s.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Replayed != 1 || recs[1].Replayed != 0 || recs[2].Replayed != 1 {
		t.Fatalf("per-shard replays = %d/%d/%d, want 1/0/1",
			recs[0].Replayed, recs[1].Replayed, recs[2].Replayed)
	}
	if st := s.Stats(); st.Appends != 2 {
		t.Fatalf("set appends = %d, want 2", st.Appends)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// listTestSegments returns the shard-0 segment paths in index order.
func listTestSegments(t *testing.T, dir string) []string {
	t.Helper()
	j := &Journal{opts: Options{Dir: dir, Shard: 0}}
	segs, err := j.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, s := range segs {
		out = append(out, s.path)
	}
	return out
}

// TestJournalStagingCrossesCapacity stages a mix of record sizes worth
// many staging buffers without a barrier in between — so the hot path
// repeatedly finds the buffer full and waits for the writer — plus one
// record larger than a whole staging buffer. Replay must return every
// payload byte-identical in append order, and every segment but the
// last must end at the first record boundary past the roll threshold.
func TestJournalStagingCrossesCapacity(t *testing.T) {
	const segBytes = 64 << 10
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, Sync: SyncNone, SegmentBytes: segBytes})
	sizes := []int{0, 1, 17, 500, 1024, 4000, 9000}
	var want [][]byte
	var total int
	for seq := uint64(1); total < 12*stageCap; seq++ {
		n := sizes[int(seq)%len(sizes)]
		if seq == 300 {
			n = stageCap + 1000
		}
		p := payload(seq, n)
		j.Append(testExp, seq, p)
		want = append(want, p)
		total += RecOverhead + n
	}
	j.Flush()
	if got := j.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Flush, want 0", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	segs := listTestSegments(t, dir)
	if len(segs) < 10 {
		t.Fatalf("%d segments for %d journalled bytes, want ≥10 rolls", len(segs), total)
	}
	for _, path := range segs[:len(segs)-1] {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off, last := SegHeaderLen, 0
		for off < len(data) {
			_, _, _, _, size, ok := parseRecord(data[off:])
			if !ok {
				t.Fatalf("%s: bad record at offset %d", filepath.Base(path), off)
			}
			off, last = off+size, size
		}
		if len(data) < segBytes || len(data)-last >= segBytes {
			t.Fatalf("%s: %d bytes (last record %d) — not rolled at the first boundary past %d",
				filepath.Base(path), len(data), last, segBytes)
		}
	}

	j2, rec := openT(t, Options{Dir: dir})
	defer j2.Close()
	checkBalance(t, rec)
	if len(rec.Entries) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(rec.Entries), len(want))
	}
	for i, e := range rec.Entries {
		if e.Seq != uint64(i+1) || !bytes.Equal(e.Payload, want[i]) {
			t.Fatalf("entry %d: seq %d, %d payload bytes — want seq %d, %d bytes, byte-identical",
				i, e.Seq, len(e.Payload), i+1, len(want[i]))
		}
	}
}

// TestJournalConcurrentBarriers races the serialised producer (Append +
// TrimTo) against Flush, Pending and Stats from other goroutines; run
// under -race it checks the staging hand-off's locking.
func TestJournalConcurrentBarriers(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, SegmentBytes: 32 << 10})
	const n = 4000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch g {
				case 0:
					j.Flush()
				case 1:
					if p := j.Pending(); p < 0 || p > n+n/8 {
						t.Errorf("Pending() = %d outside [0, %d]", p, n+n/8)
						return
					}
				case 2:
					if st := j.Stats(); st.Appends > n {
						t.Errorf("Stats().Appends = %d > %d", st.Appends, n)
						return
					}
				}
			}
		}(g)
	}
	for seq := uint64(1); seq <= n; seq++ {
		j.Append(testExp, seq, payload(seq, 200))
		if seq%8 == 0 {
			j.TrimTo(testExp, seq-4)
		}
	}
	close(stop)
	wg.Wait()
	j.Flush()
	if got := j.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Flush, want 0", got)
	}
	j.Close()

	j2, rec := openT(t, Options{Dir: dir})
	defer j2.Close()
	checkBalance(t, rec)
	if got := rec.Seqs[testExp]; got != n {
		t.Fatalf("sequence floor %d, want %d", got, n)
	}
	if rec.Replayed != 4 {
		t.Fatalf("replayed %d entries, want the 4 untrimmed", rec.Replayed)
	}
}

// TestJournalAppendAfterCloseReturns checks records staged after Close
// are discarded rather than blocking on a writer that has gone.
func TestJournalAppendAfterCloseReturns(t *testing.T) {
	j, _ := openT(t, Options{Dir: t.TempDir()})
	j.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		big := payload(1, 4096)
		for seq := uint64(1); seq <= uint64(4*stageCap/len(big)); seq++ {
			j.Append(testExp, seq, big)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Append after Close blocked")
	}
}
