package comm

import (
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/clique"
)

// randomPlan draws a TwoHop plan over n nodes: each destination gets a
// few runs of distinct senders in ascending order, some with a stride,
// some holding the destination itself, with lengths on both sides of n
// and arbitrary shifts.
func randomPlan(n int, seed uint64) (*Plan, [][]Run) {
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	runs := make([][]Run, n)
	for t := range runs {
		from := rng.IntN(n)
		for range rng.IntN(3) {
			if from >= n {
				break
			}
			stride := 1 + rng.IntN(3)
			count := 1 + rng.IntN((n-from+stride-1)/stride)
			runs[t] = append(runs[t], Run{From: from, Stride: stride, Count: count,
				Len: rng.IntN(2*n + 2), Shift: rng.IntN(3*n) - n})
			from += count*stride + rng.IntN(2)
		}
	}
	return NewPlan(n, func(t int, buf []Run) []Run { return append(buf, runs[t]...) }), runs
}

// twoHopWord is word y of the stream from s to t.
func twoHopWord(s, t, y int) uint64 { return uint64(s)<<40 | uint64(t)<<20 | uint64(y) }

// twoHopStreams returns what node me owes (its streams in destination
// order) and what it must receive (in sender order).
func twoHopStreams(n, me int, runs [][]Run) (out, in []uint64) {
	for t := range n {
		for _, r := range runs[t] {
			for m := range r.Count {
				s := r.From + m*max(r.Stride, 1)
				for y := range r.Len {
					if s == me {
						out = append(out, twoHopWord(s, t, y))
					}
					if t == me {
						in = append(in, twoHopWord(s, t, y))
					}
				}
			}
		}
	}
	return out, in
}

// bruteLoads counts, word by word, what every link carries in each hop
// under the rule word y of the m-th stream of a run at position
// z = Z + m·Len + y goes through (z + Shift) mod n.
func bruteLoads(n int, runs [][]Run) (load1, load2 int) {
	hop1 := make([]int, n*n)
	hop2 := make([]int, n*n)
	for t := range n {
		z := 0
		for _, r := range runs[t] {
			for m := range r.Count {
				s := r.From + m*max(r.Stride, 1)
				for range r.Len {
					v := ((z+r.Shift)%n + n) % n
					if s != t && v != s {
						hop1[s*n+v]++
					}
					if s != t && v != t {
						hop2[v*n+t]++
					}
					z++
				}
			}
		}
	}
	for i := range hop1 {
		load1, load2 = max(load1, hop1[i]), max(load2, hop2[i])
	}
	return load1, load2
}

// TestTwoHopDeliversThePlan is TwoHop's contract over random plans:
// every node receives exactly the streams its runs describe, in sender
// order; the plan's link loads equal a word-by-word count under the
// intermediate rule; the run takes p.Rounds(wpp) rounds and no link
// ever carries more than wpp words; and both backends agree on Stats.
func TestTwoHopDeliversThePlan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		for seed := range uint64(6) {
			p, runs := randomPlan(n, seed)
			if l1, l2 := bruteLoads(n, runs); p.load1 != l1 || p.load2 != l2 {
				t.Fatalf("n=%d seed=%d: plan loads %d/%d, word by word %d/%d", n, seed, p.load1, p.load2, l1, l2)
			}
			for _, wpp := range []int{1, 3, 8} {
				res := runBoth(t, clique.Config{N: n, WordsPerPair: wpp}, func(nd *clique.Node) {
					out, want := twoHopStreams(n, nd.ID(), runs)
					got := TwoHop(nd, p, out)
					if len(got) != len(want) {
						nd.Fail("received %d words, want %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							nd.Fail("word %d = %x, want %x", i, got[i], want[i])
						}
					}
				})
				for backend, r := range res {
					if r.Stats.Rounds != p.Rounds(wpp) {
						t.Errorf("n=%d seed=%d wpp=%d %s: rounds = %d, plan says %d", n, seed, wpp, backend, r.Stats.Rounds, p.Rounds(wpp))
					}
					if r.Stats.MaxPairWords > wpp {
						t.Errorf("n=%d seed=%d wpp=%d %s: a link carried %d words in a round", n, seed, wpp, backend, r.Stats.MaxPairWords)
					}
				}
			}
		}
	}
}

// TestTwoHopRejectsWrongLengths scripts, through clique.Replay, a peer
// that sends node 0 more or fewer words than the plan fixes, in either
// hop: TwoHop must fail with its typed message on every backend rather
// than drop or invent words. Node 1 owes node 0 one word; with shift 0
// it goes straight to node 0 (its own intermediate) in hop 1, with
// shift 1 it is held by node 1 and sent in hop 2. A caller whose words
// do not match the plan fails too.
func TestTwoHopRejectsWrongLengths(t *testing.T) {
	const n = 2
	cases := []struct {
		name  string
		shift int
		inbox [][][]uint64
		want  string
	}{
		{"hop 1 longer", 0, [][][]uint64{{nil, {7, 8}}}, "comm: TwoHop hop 1 got 2 words from 1 in a round, the plan has 1"},
		{"hop 1 silent", 0, [][][]uint64{{nil, nil}}, "comm: TwoHop hop 1 got 0 words from 1 in a round, the plan has 1"},
		{"hop 2 longer", 1, [][][]uint64{{nil, {7, 8}}}, "comm: TwoHop hop 2 got 2 words from 1 in a round, the plan has 1"},
		{"hop 2 silent", 1, [][][]uint64{{nil, nil}}, "comm: TwoHop hop 2 got 0 words from 1 in a round, the plan has 1"},
	}
	for _, c := range cases {
		p := NewPlan(n, func(t int, buf []Run) []Run {
			if t == 0 {
				buf = append(buf, Run{From: 1, Stride: 1, Count: 1, Len: 1, Shift: c.shift})
			}
			return buf
		})
		if p.Rounds(8) != 1 {
			t.Fatalf("%s: plan takes %d rounds, want 1", c.name, p.Rounds(8))
		}
		for _, backend := range clique.Backends() {
			cfg := clique.Config{N: n, WordsPerPair: 8, Backend: backend}
			_, err := clique.Replay(cfg, 0, func(nd *clique.Node) { TwoHop[uint64](nd, p, nil) }, c.inbox)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s on %s: err = %v, want %q", c.name, backend, err, c.want)
			}
		}
	}
	p, runs := randomPlan(5, 1)
	for _, backend := range clique.Backends() {
		_, err := clique.Run(clique.Config{N: 5, Backend: backend}, func(nd *clique.Node) {
			out, _ := twoHopStreams(5, nd.ID(), runs)
			TwoHop(nd, p, append(out, 0))
		})
		if want := "comm: TwoHop given"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("extra word on %s: err = %v, want %q", backend, err, want)
		}
	}
}
