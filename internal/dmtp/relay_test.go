package dmtp

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/journal"
	"repro/internal/wire"
)

// bareFor encodes a mode-0 data packet for experiment exp.
func bareFor(t *testing.T, exp wire.ExperimentID, payload string) wire.View {
	t.Helper()
	h := wire.Header{ConfigID: 0, Experiment: exp}
	enc, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire.View(append(enc, payload...))
}

// relayUpgradeFeats is a sequenced, reliable upgrade target.
const relayUpgradeFeats = wire.FeatSequenced | wire.FeatReliable | wire.FeatTimestamped

// TestRelayEngineFlowTableAndLifecycle drives the shared relay engine on
// a fake clock: flow registration against the MaxFlows bound and the
// route resolver, strict idle expiry at the FlowTTL boundary, a flow
// returning after idling, Crash clearing the table, and a journalled
// crash/restart restoring stash entries and sequence floors.
func TestRelayEngineFlowTableAndLifecycle(t *testing.T) {
	const ttl = int64(FlowTTL)
	srcA := wire.AddrFrom(10, 0, 0, 1, 4000)
	srcB := wire.AddrFrom(10, 0, 0, 2, 4000)
	expA := wire.NewExperimentID(11, 0)
	expB := wire.NewExperimentID(22, 0)
	expDenied := wire.NewExperimentID(99, 0)

	type env struct {
		e   *RelayEngine[string]
		fc  *FakeClock
		dp  *recDatapath
		dir string // journal directory, when journalling
		// resolved counts resolver calls (one per registration).
		resolved int
	}
	// lookup registers or refreshes (src, exp) at the clock's now.
	lookup := func(env *env, src wire.Addr, exp wire.ExperimentID) *Flow[string] {
		return env.e.Shard(exp).Lookup(src, exp, env.fc.Now())
	}
	flows := func(env *env) int {
		n := 0
		env.e.EachFlow(func(int, *Flow[string]) { n++ })
		return n
	}
	// upgrade runs one packet through the upgrade step and stashes it.
	upgrade := func(t *testing.T, env *env, f *Flow[string], payload string) uint64 {
		t.Helper()
		sh := env.e.Shard(f.Exp)
		up, seq, err := sh.Upgrade(f, bareFor(t, f.Exp, payload), 1, relayUpgradeFeats, env.fc.Now(),
			Upgrade{Self: wire.AddrFrom(10, 0, 0, 9, 7000)})
		if err != nil {
			t.Fatal(err)
		}
		sh.Stash(f.Exp, seq, up)
		return seq
	}

	cases := []struct {
		name     string
		maxFlows int
		journal  bool
		run      func(t *testing.T, env *env)
		want     FlowStats
	}{
		{
			name:     "registration and MaxFlows rejection",
			maxFlows: 2,
			run: func(t *testing.T, env *env) {
				fa := lookup(env, srcA, expA)
				if fa == nil || fa.Route != "dst-11" || lookup(env, srcB, expA) == nil {
					t.Fatalf("first two flows not registered: %+v", fa)
				}
				if lookup(env, srcA, expB) != nil {
					t.Fatal("third flow registered past MaxFlows=2")
				}
				if lookup(env, srcA, expA) != fa {
					t.Fatal("a registered flow must keep working with the table full")
				}
				if env.resolved != 2 {
					t.Fatalf("resolver called %d times, want once per registration (2)", env.resolved)
				}
			},
			want: FlowStats{Active: 2, Opened: 2, Rejected: 1},
		},
		{
			name: "resolver rejection",
			run: func(t *testing.T, env *env) {
				if lookup(env, srcA, expDenied) != nil {
					t.Fatal("flow registered although the resolver refused it")
				}
				if lookup(env, srcA, expA) == nil {
					t.Fatal("routable flow refused")
				}
			},
			want: FlowStats{Active: 1, Opened: 1, Rejected: 1},
		},
		{
			name: "idle exactly TTL is kept",
			run: func(t *testing.T, env *env) {
				env.fc.AdvanceTo(ttl / 2)
				lookup(env, srcA, expA)
				env.e.Sweep(ttl/2 + ttl)
				if flows(env) != 1 {
					t.Fatal("flow idle for exactly FlowTTL was expired")
				}
			},
			want: FlowStats{Active: 1, Opened: 1},
		},
		{
			name: "idle past TTL expires",
			run: func(t *testing.T, env *env) {
				env.fc.AdvanceTo(ttl / 2)
				lookup(env, srcA, expA)
				env.e.Sweep(ttl/2 + ttl + 1)
				if flows(env) != 0 {
					t.Fatal("flow idle past FlowTTL survived the sweep")
				}
			},
			want: FlowStats{Active: 0, Opened: 1, Expired: 1},
		},
		{
			name: "flow returning after idling is refreshed",
			run: func(t *testing.T, env *env) {
				f := lookup(env, srcA, expA)
				upgrade(t, env, f, "before")
				// The flow's packet is handled before the sweep that
				// follows it, so the return refreshes rather than expires.
				env.fc.AdvanceTo(2 * ttl)
				if lookup(env, srcA, expA) != f {
					t.Fatal("returning flow was re-registered")
				}
				env.e.Sweep(env.fc.Now())
				if flows(env) != 1 || f.Upgraded != 1 {
					t.Fatalf("returning flow lost: flows=%d upgraded=%d", flows(env), f.Upgraded)
				}
			},
			want: FlowStats{Active: 1, Opened: 1},
		},
		{
			name: "crash clears the table and its counters",
			run: func(t *testing.T, env *env) {
				f := lookup(env, srcA, expA)
				upgrade(t, env, f, "x")
				lookup(env, srcB, expB)
				env.e.Crash()
				if !env.e.Down() || flows(env) != 0 || env.e.BufferedBytes() != 0 {
					t.Fatalf("crash left down=%v flows=%d bytes=%d", env.e.Down(), flows(env), env.e.BufferedBytes())
				}
				if err := env.e.Restart(nil); err != nil {
					t.Fatal(err)
				}
				g := lookup(env, srcA, expA)
				if g == f || g.Upgraded != 0 {
					t.Fatal("a pre-crash flow entry survived the restart")
				}
				if env.resolved != 3 {
					t.Fatalf("resolver called %d times, want a re-resolve after restart (3)", env.resolved)
				}
			},
			want: FlowStats{Active: 1, Opened: 3},
		},
		{
			name:    "journalled crash restores stash and sequence floors",
			journal: true,
			run: func(t *testing.T, env *env) {
				fa, fb := lookup(env, srcA, expA), lookup(env, srcB, expB)
				for i := 0; i < 5; i++ {
					upgrade(t, env, fa, "a")
				}
				upgrade(t, env, fb, "b")
				want := env.e.BufferedBytes()
				env.e.Crash()
				if env.e.BufferedBytes() != 0 {
					t.Fatal("crash did not release the stash")
				}
				if err := env.e.Restart(nil); err != nil {
					t.Fatal(err)
				}
				if got := env.e.BufferedBytes(); got != want {
					t.Fatalf("restored %d stash bytes, want %d", got, want)
				}
				recovered := 0
				for _, rec := range env.e.JournalRecoveries() {
					recovered += len(rec.Entries)
				}
				if recovered != 6 {
					t.Fatalf("journal recovered %d entries, want 6", recovered)
				}
				// The restored entry is served as it was stashed.
				env.e.Shard(expA).ServeNAK(&wire.NAK{
					Experiment: expA, Requester: srcA, Ranges: []wire.SeqRange{{From: 3, To: 3}},
				})
				if len(env.dp.data) != 1 {
					t.Fatalf("restored stash served %d packets, want 1", len(env.dp.data))
				}
				if seq, _ := wire.View(env.dp.data[0]).Seq(); seq != 3 ||
					!bytes.HasSuffix(env.dp.data[0], []byte("a")) {
					t.Fatalf("served seq %d %q, want seq 3 of flow A", seq, env.dp.data[0])
				}
				if seq := upgrade(t, env, lookup(env, srcA, expA), "a"); seq != 6 {
					t.Fatalf("post-restart seq %d, want 6", seq)
				}
				want = env.e.BufferedBytes()

				// Process death: a fresh engine on the same directory
				// restores the stash and the sequence floors from disk.
				if err := env.e.Close(); err != nil {
					t.Fatal(err)
				}
				next := NewRelayEngine(&recDatapath{}, BufferConfig{Clock: env.fc}, 2, 0,
					func(wire.Addr, wire.ExperimentID) (string, bool) { return "next", true })
				if err := next.OpenJournal(env.dir, journal.SyncNone); err != nil {
					t.Fatal(err)
				}
				defer next.Close()
				if got := next.BufferedBytes(); got != want {
					t.Fatalf("reopened engine holds %d stash bytes, want %d", got, want)
				}
				if seq := next.Shard(expA).NextSeq(expA); seq != 7 {
					t.Fatalf("reopened engine's next seq for A is %d, want 7", seq)
				}
				if seq := next.Shard(expB).NextSeq(expB); seq != 2 {
					t.Fatalf("reopened engine's next seq for B is %d, want 2", seq)
				}
			},
			want: FlowStats{Active: 1, Opened: 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := &env{fc: NewFakeClock(0), dp: &recDatapath{}}
			resolve := func(_ wire.Addr, exp wire.ExperimentID) (string, bool) {
				env.resolved++
				if exp == expDenied {
					return "", false
				}
				return fmt.Sprintf("dst-%d", uint32(exp)>>8), true
			}
			env.e = NewRelayEngine(env.dp, BufferConfig{Clock: env.fc}, 2, tc.maxFlows, resolve)
			if tc.journal {
				env.dir = t.TempDir()
				if err := env.e.OpenJournal(env.dir, journal.SyncNone); err != nil {
					t.Fatal(err)
				}
				defer env.e.Close()
			}
			tc.run(t, env)
			if got := env.e.FlowStats(); got != tc.want {
				t.Fatalf("flow stats %+v, want %+v", got, tc.want)
			}
		})
	}
}
