package clique_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clique"
	"repro/internal/virtual"
)

// sum is a Replicated step: the sum of *prev and the input words.
type sum struct{ v uint64 }

// counted returns a Replicated step that adds its inputs to *prev (0
// for a nil prev) plus bias, and counts its calls in calls.
func counted(calls *atomic.Int64, bias uint64) func(prev *sum, in []uint64) *sum {
	return func(prev *sum, in []uint64) *sum {
		calls.Add(1)
		out := &sum{v: bias}
		if prev != nil {
			out.v += prev.v
		}
		for _, w := range in {
			out.v += w
		}
		return out
	}
}

// runWithin runs f and fails the test if it does not return in time,
// so a slot lock left held shows up as a failure rather than a hang.
func runWithin(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish: a Replicated slot blocked its peers")
	}
}

// TestReplicatedOncePerRoundAndSite: on lockstep a chain of Replicated
// steps over equal inputs runs f once per round; every node gets the
// same, correct result.
func TestReplicatedOncePerRoundAndSite(t *testing.T) {
	const n, rounds = 16, 4
	var calls atomic.Int64
	got := make([]uint64, n)
	_, err := clique.Run(clique.Config{N: n, Backend: "lockstep"}, func(nd *clique.Node) {
		var acc *sum
		for r := 0; r < rounds; r++ {
			acc = clique.Replicated(nd, "chain", acc, []uint64{uint64(r), 10}, counted(&calls, 0))
			nd.Tick()
		}
		got[nd.ID()] = acc.v
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := calls.Load(); c != rounds {
		t.Errorf("f ran %d times, want once per round (%d)", c, rounds)
	}
	for v, g := range got {
		if want := uint64(0 + 1 + 2 + 3 + 4*10); g != want {
			t.Errorf("node %d: result %d, want %d", v, g, want)
		}
	}
}

// TestReplicatedDivergentNodesComputeOwn: a node with a different in,
// and a node with an equal-valued but different prev, each get f of
// their own inputs, while the other nodes still share one result.
func TestReplicatedDivergentNodesComputeOwn(t *testing.T) {
	const n = 16
	var calls atomic.Int64
	shared := &sum{v: 100}
	lookalike := &sum{v: 100}
	got := make([]*sum, n)
	_, err := clique.Run(clique.Config{N: n, Backend: "lockstep"}, func(nd *clique.Node) {
		prev, in := shared, []uint64{1, 2}
		switch nd.ID() {
		case 3:
			in = []uint64{1, 3}
		case 5:
			prev = lookalike
		}
		got[nd.ID()] = clique.Replicated(nd, "step", prev, in, counted(&calls, 0))
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, g := range got {
		want := uint64(103)
		if v == 3 {
			want = 104
		}
		if g.v != want {
			t.Errorf("node %d: result %d, want %d", v, g.v, want)
		}
	}
	if got[5] == got[0] || got[3] == got[0] {
		t.Error("a divergent node was handed the shared result")
	}
	for v, g := range got {
		if v != 3 && v != 5 && g != got[0] {
			t.Errorf("node %d computed its own result; agreeing nodes should share", v)
		}
	}
	if c := calls.Load(); c != 3 {
		t.Errorf("f ran %d times, want 3 (shared, node 3, node 5)", c)
	}
}

// TestReplicatedReferenceComputesAtEveryNode: the goroutine reference
// backend, and a virtual clique's nodes on lockstep, never share.
func TestReplicatedReferenceComputesAtEveryNode(t *testing.T) {
	const n = 8
	var calls atomic.Int64
	_, err := clique.Run(clique.Config{N: n, Backend: "goroutine"}, func(nd *clique.Node) {
		clique.Replicated(nd, "step", nil, []uint64{7}, counted(&calls, 0))
		nd.Tick()
		clique.Replicated(nd, "step", nil, []uint64{7}, counted(&calls, 0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := calls.Load(); c != 2*n {
		t.Errorf("goroutine: f ran %d times, want %d (every node, every call)", c, 2*n)
	}

	const m = 12
	calls.Store(0)
	_, err = clique.Run(clique.Config{N: 4, WordsPerPair: 8, Backend: "lockstep"}, func(nd *clique.Node) {
		virtual.Run(nd, virtual.Config{M: m, Host: func(v int) int { return v % 4 }, WordsPerPair: 1}, func(vn *virtual.Node) {
			if got := clique.Replicated(vn, "step", nil, []uint64{7}, counted(&calls, 0)); got.v != 7 {
				vn.Fail("virtual node %d: result %d, want 7", vn.ID(), got.v)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := calls.Load(); c != m {
		t.Errorf("virtual: f ran %d times, want %d (every virtual node)", c, m)
	}
}

// TestReplicatedBatchRunsDoNotShare: each run of a lockstep batch has
// its own table. Runs with different inputs get their own results, and
// even runs with equal inputs compute once each and never hold the
// same result.
func TestReplicatedBatchRunsDoNotShare(t *testing.T) {
	const n, batch = 8, 5
	for _, equal := range []bool{false, true} {
		var calls atomic.Int64
		got := make([][]*sum, batch)
		programs := make([]clique.NodeFunc, batch)
		for r := range programs {
			got[r] = make([]*sum, n)
			in := []uint64{uint64(r)}
			if equal {
				in = []uint64{42}
			}
			programs[r] = func(nd *clique.Node) {
				nd.Tick()
				got[r][nd.ID()] = clique.Replicated(nd, "step", nil, in, counted(&calls, 0))
			}
		}
		_, errs := clique.RunBatch(clique.Config{N: n, Backend: "lockstep"}, programs)
		for r, err := range errs {
			if err != nil {
				t.Fatalf("equal=%v run %d: %v", equal, r, err)
			}
		}
		if c := calls.Load(); c != batch {
			t.Errorf("equal=%v: f ran %d times, want once per run (%d)", equal, c, batch)
		}
		for r := range got {
			want := uint64(r)
			if equal {
				want = 42
			}
			for v, g := range got[r] {
				if g.v != want {
					t.Errorf("equal=%v run %d node %d: result %d, want %d", equal, r, v, g.v, want)
				}
				if r > 0 && g == got[0][0] {
					t.Errorf("equal=%v: run %d holds run 0's result", equal, r)
				}
			}
		}
	}
}

// TestReplicatedSitesDoNotAlias: two call sites with equal (prev, in)
// in one round keep separate results, and so do two calls of one site.
func TestReplicatedSitesDoNotAlias(t *testing.T) {
	const n = 8
	for _, backend := range clique.Backends() {
		var calls atomic.Int64
		_, err := clique.Run(clique.Config{N: n, Backend: backend}, func(nd *clique.Node) {
			in := []uint64{5}
			a := clique.Replicated(nd, "a", nil, in, counted(&calls, 0))
			b := clique.Replicated(nd, "b", nil, in, counted(&calls, 1000))
			a2 := clique.Replicated(nd, "a", nil, in, counted(&calls, 2000))
			if a.v != 5 || b.v != 1005 || a2.v != 2005 {
				nd.Fail("results a=%d b=%d a2=%d, want 5 1005 2005", a.v, b.v, a2.v)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		want := int64(3)
		if backend == "goroutine" {
			want = 3 * n
		}
		if c := calls.Load(); c != want {
			t.Errorf("%s: f ran %d times, want %d", backend, c, want)
		}
	}
}

// TestReplicatedPanicFailsRun: a panicking f fails the run like any
// node panic, on both backends, whether every node's f panics or only
// one divergent node's, and no peer is left waiting on the slot.
func TestReplicatedPanicFailsRun(t *testing.T) {
	const n = 8
	for _, backend := range clique.Backends() {
		for _, only := range []int{-1, 2} {
			var err error
			runWithin(t, func() {
				_, err = clique.Run(clique.Config{N: n, Backend: backend}, func(nd *clique.Node) {
					in := []uint64{1}
					if nd.ID() == only {
						in = []uint64{2}
					}
					clique.Replicated(nd, "boom", nil, in, func(_ *sum, in []uint64) *sum {
						if only < 0 || in[0] == 2 {
							panic(fmt.Sprintf("f failed on %d", in[0]))
						}
						return &sum{}
					})
					nd.Tick()
				})
			})
			if err == nil || !strings.Contains(err.Error(), "panicked: f failed") {
				t.Errorf("%s (only=%d): err = %v, want the f panic", backend, only, err)
			}
		}
	}
}
