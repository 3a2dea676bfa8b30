package exp

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/clique"
)

func TestRequestCanonicalDefaults(t *testing.T) {
	r, err := Request{Kind: KindExperiment, Experiment: "fig1"}.Canonical()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	if r.Backend != clique.DefaultBackend {
		t.Fatalf("backend %q, want default %q", r.Backend, clique.DefaultBackend)
	}

	// The empty spelling and the explicit default must hash identically
	// — otherwise the serve cache splits on spelling.
	explicit, err := Request{Kind: KindExperiment, Experiment: "fig1", Backend: clique.DefaultBackend}.Canonical()
	if err != nil {
		t.Fatalf("canonical explicit: %v", err)
	}
	if r.Hash() != explicit.Hash() {
		t.Fatal("default-backend spellings hash differently")
	}
}

func TestRequestCanonicalRejects(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"unknown kind", Request{Kind: "party"}, "unknown request kind"},
		{"unknown experiment", Request{Kind: KindExperiment, Experiment: "nope"}, "unknown experiment"},
		{"experiment with adhoc fields", Request{Kind: KindExperiment, Experiment: "fig1", N: 8}, "ad-hoc fields"},
		{"adhoc missing algorithm", Request{Kind: KindAdhoc, N: 8}, "missing algorithm"},
		{"adhoc zero n", Request{Kind: KindAdhoc, Algorithm: "triangle"}, "need n >= 1"},
		{"adhoc negative wpp", Request{Kind: KindAdhoc, Algorithm: "triangle", N: 8, WordsPerPair: -1}, "words_per_pair"},
		{"adhoc oversized wpp", Request{Kind: KindAdhoc, Algorithm: "triangle", N: 8, WordsPerPair: clique.MaxWordsPerPair + 1}, "exceeds the maximum"},
		{"adhoc oversized n", Request{Kind: KindAdhoc, Algorithm: "triangle", N: clique.MaxN + 1}, "exceeds the maximum"},
		{"adhoc with experiment id", Request{Kind: KindAdhoc, Algorithm: "triangle", N: 8, Experiment: "fig1"}, "carries experiment id"},
		{"unknown backend", Request{Kind: KindExperiment, Experiment: "fig1", Backend: "warp"}, "unknown backend"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.req.Canonical()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestRequestHashSensitivity(t *testing.T) {
	base := Request{Kind: KindAdhoc, Algorithm: "triangle", N: 32, Seed: 1, Backend: "lockstep"}
	mutants := []Request{
		{Kind: KindAdhoc, Algorithm: "triangle", N: 32, Seed: 2, Backend: "lockstep"},
		{Kind: KindAdhoc, Algorithm: "triangle", N: 33, Seed: 1, Backend: "lockstep"},
		{Kind: KindAdhoc, Algorithm: "mst", N: 32, Seed: 1, Backend: "lockstep"},
		{Kind: KindAdhoc, Algorithm: "triangle", N: 32, Seed: 1, Backend: "goroutine"},
		{Kind: KindAdhoc, Algorithm: "triangle", N: 32, Seed: 1, Backend: "lockstep", Quick: true},
		{Kind: KindAdhoc, Algorithm: "triangle", N: 32, Seed: 1, Backend: "lockstep", WordsPerPair: 4},
	}
	seen := map[string]bool{base.Hash(): true}
	for i, m := range mutants {
		h := m.Hash()
		if seen[h] {
			t.Fatalf("mutant %d collides with an earlier request hash", i)
		}
		seen[h] = true
	}
	if base.Hash() != base.Hash() {
		t.Fatal("hash is not stable")
	}
}

// TestRequestHashModelRevision pins that a model-revision bump moves
// every hash, so a ledger written under the old revision is never
// served for the same request under the new one.
func TestRequestHashModelRevision(t *testing.T) {
	r := Request{Kind: KindAdhoc, Algorithm: "apsp", N: 27, Seed: 1, Backend: "lockstep"}
	if r.Hash() != r.hashAt(modelRevision) {
		t.Fatal("Hash does not use the current model revision")
	}
	if r.hashAt(modelRevision) == r.hashAt(modelRevision+1) {
		t.Fatal("the same request hashes identically under two model revisions")
	}
}

// TestRunOneContextCancellation pins that a cancelled context aborts an
// experiment and surfaces context.Canceled.
func TestRunOneContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := RunOneContext(ctx, "fig1", Options{Quick: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProgressCallback pins that Options.Progress observes every
// simulated run with monotonic cumulative cost and non-decreasing
// wall-clock.
func TestProgressCallback(t *testing.T) {
	var calls []Progress
	opts := Options{Quick: true, Progress: func(p Progress) { calls = append(calls, p) }}
	res, _, err := RunOneContext(context.Background(), "mst", opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(calls) != res.Sim.Runs {
		t.Fatalf("progress called %d times, want one per simulated run (%d)", len(calls), res.Sim.Runs)
	}
	for i := 1; i < len(calls); i++ {
		if calls[i].Rounds < calls[i-1].Rounds || calls[i].Runs != calls[i-1].Runs+1 {
			t.Fatalf("progress not monotonic at %d: %+v -> %+v", i, calls[i-1], calls[i])
		}
		if calls[i].WallNS < calls[i-1].WallNS {
			t.Fatalf("progress wall clock went backwards at %d: %d -> %d", i, calls[i-1].WallNS, calls[i].WallNS)
		}
	}
	last := calls[len(calls)-1]
	if last.SimCost != res.Sim {
		t.Fatalf("final progress %+v != result sim cost %+v", last.SimCost, res.Sim)
	}
}
