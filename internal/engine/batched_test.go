package engine

import (
	"fmt"
	"strings"
	"testing"
)

// runAll executes the same body on every backend and returns results
// keyed by backend name, failing on any backend error.
func runAll(t *testing.T, cfg Config, body func(id int, rt NodeRuntime)) map[string]*Result {
	t.Helper()
	out := map[string]*Result{}
	for _, name := range Names() {
		be, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := be.Run(cfg, body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = res
	}
	return out
}

// transcriptKey flattens transcripts for cross-backend comparison.
func transcriptKey(ts []*Transcript) string {
	var sb strings.Builder
	for _, tr := range ts {
		fmt.Fprintf(&sb, "%d:%v;", tr.NodeID, tr.Rounds)
	}
	return sb.String()
}

// TestBatchedMatchesVarargs pins the runtime's zero-copy send path: a
// program that fills SendBuf reservations produces exactly the Stats
// and transcripts of its Send twin, on every backend, including when a
// Broadcast earlier in the round shares the link. The node-side staging
// paths (BroadcastBuf, RecvInto) are pinned by package clique's test of
// the same name.
func TestBatchedMatchesVarargs(t *testing.T) {
	const n, wpp, rounds = 5, 3, 4
	cfg := Config{N: n, WordsPerPair: wpp, RecordTranscript: true}

	classic := runAll(t, cfg, func(id int, rt NodeRuntime) {
		for r := 0; r < rounds; r++ {
			rt.Broadcast(id, r, []uint64{uint64(id*10 + r)})
			rt.Send(id, r, (id+1)%n, []uint64{uint64(id), uint64(r)})
			rt.Barrier(id)
			for p := 0; p < n; p++ {
				if p != id {
					_ = rt.Recv(id, p)
				}
			}
		}
	})
	batched := runAll(t, cfg, func(id int, rt NodeRuntime) {
		for r := 0; r < rounds; r++ {
			rt.Broadcast(id, r, []uint64{uint64(id*10 + r)})
			sb := rt.SendBuf(id, r, (id+1)%n, 2)
			sb[0], sb[1] = uint64(id), uint64(r)
			rt.Barrier(id)
		}
	})

	refStats := classic["goroutine"].Stats
	refTr := transcriptKey(classic["goroutine"].Transcripts)
	for name, res := range classic {
		if res.Stats != refStats || transcriptKey(res.Transcripts) != refTr {
			t.Fatalf("classic %s diverges from goroutine reference", name)
		}
	}
	for name, res := range batched {
		if res.Stats != refStats {
			t.Errorf("batched %s stats = %+v, want %+v", name, res.Stats, refStats)
		}
		if transcriptKey(res.Transcripts) != refTr {
			t.Errorf("batched %s transcripts diverge from the varargs run", name)
		}
	}
}

// TestSendBufStaysAliasedAcrossLaterSends pins the SendBuf contract on
// every backend and storage layout: the returned slice aliases the
// mailbox until the barrier, even when a later Send grows the same
// cell (the slice-backed layouts pre-grow to the full budget so the
// append cannot reallocate the cell out from under the buffer).
func TestSendBufStaysAliasedAcrossLaterSends(t *testing.T) {
	const n = 3
	for name, res := range runAll(t, Config{N: n, WordsPerPair: 4, RecordTranscript: true},
		func(id int, rt NodeRuntime) {
			buf := rt.SendBuf(id, 0, (id+1)%n, 1)
			rt.Send(id, 0, (id+1)%n, []uint64{7})
			buf[0] = 42 // late write, after the cell grew
			rt.Barrier(id)
		}) {
		got := res.Transcripts[1].Rounds[0].Recv[0]
		if len(got) != 2 || got[0] != 42 || got[1] != 7 {
			t.Errorf("%s: node 1 received %v from node 0, want [42 7]", name, got)
		}
	}
}

// TestBatchedBudgetViolations: SendBuf must raise the canonical budget
// violation, deterministically on the lockstep engine.
func TestBatchedBudgetViolations(t *testing.T) {
	for _, name := range Names() {
		be, _ := New(name)
		_, err := be.Run(Config{N: 3, WordsPerPair: 2}, func(id int, rt NodeRuntime) {
			buf := rt.SendBuf(id, 0, (id+1)%3, 3)
			for i := range buf {
				buf[i] = 1
			}
		})
		if err == nil || !strings.Contains(err.Error(), "bandwidth exceeded") {
			t.Errorf("%s: SendBuf overflow error = %v", name, err)
		}
	}
}

// TestRegistryNamesMatchNew: every listed backend constructs, and the
// unknown-backend error enumerates exactly the listed names — the two
// can no longer drift because both derive from the registry map.
func TestRegistryNamesMatchNew(t *testing.T) {
	for _, name := range Names() {
		be, err := New(name)
		if err != nil || be.Name() != name {
			t.Errorf("New(%q) = %v, %v", name, be, err)
		}
	}
	_, err := New("no-such-backend")
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-backend error %q does not list %q", err, name)
		}
	}
	if def, err := New(""); err != nil || def.Name() != DefaultBackend {
		t.Errorf("empty name resolved to %v, %v; want %s", def, err, DefaultBackend)
	}
}
