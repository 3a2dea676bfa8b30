package matmul

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/trace"
)

// mul3dRounds is the exact number of rounds one Mul3D product takes at
// n nodes and wpp words per pair, outside the Boolean semiring: the sum
// of its three TwoHop exchanges' rounds.
func mul3dRounds(n, wpp int) int {
	pl := newMul3DPlans(n)
	return pl.distribute.Rounds(wpp) + pl.reduce.Rounds(wpp) + pl.ret.Rounds(wpp)
}

// bruteTraffic returns, for each of Mul3D's phases, the words node s
// owes node t, straight from the 3D decomposition: A[s][P_k] and
// B[s][P_j] to the nodes (part(s), *, k) and (*, j, part(s)); chunk x
// of node (i, j, k)'s partial block to (i, j, x); and row g's columns
// P_j from the node (i, j, x) that sums it.
func bruteTraffic(n int) map[string][][]int {
	c := newGeometry(n)
	q, p := c.q, c.p
	workers := q * q * q
	out := map[string][][]int{}
	for _, phase := range []string{"distribute", "reduce", "return"} {
		l := make([][]int, n)
		for s := range l {
			l[s] = make([]int, n)
			for t := range l[s] {
				switch phase {
				case "distribute":
					if t < workers {
						i, j, k := tripleOf(t, q)
						if p.of(s) == i {
							l[s][t] += p.sz(k)
						}
						if p.of(s) == k {
							l[s][t] += p.sz(j)
						}
					}
				case "reduce":
					if s < workers && t < workers {
						si, sj, _ := tripleOf(s, q)
						ti, tj, x := tripleOf(t, q)
						if si == ti && sj == tj {
							l[s][t] = c.rows(ti, x) * p.sz(tj)
						}
					}
				case "return":
					if s < workers {
						i, j, k := tripleOf(s, q)
						if p.of(t) == i && (t-p.lo(i))/c.chunk == k {
							l[s][t] = p.sz(j)
						}
					}
				}
			}
		}
		out[phase] = l
	}
	return out
}

// TestMul3DScheduleFollowsPrefixRule holds each phase's runs to the
// intermediate rule of Mul3D's doc: every stream the 3D decomposition
// moves appears once, in sender order, with its length; its first word
// sits at P_t(s), the words t receives from senders below s; and the
// run's Shift is Q_s(t), the words s sends to destinations below t,
// modulo n. Word y then goes through (P_t(s) + Q_s(t) + y) mod n.
func TestMul3DScheduleFollowsPrefixRule(t *testing.T) {
	for _, n := range []int{1, 2, 5, 7, 8, 9, 12, 27, 28, 30, 63, 64, 65, 100} {
		c := newGeometry(n)
		for phase, l := range bruteTraffic(n) {
			runsOf := map[string]func(int, []comm.Run) []comm.Run{
				"distribute": c.distributeRuns, "reduce": c.reduceRuns, "return": c.returnRuns}[phase]
			for dst := range n {
				seen, last, z := 0, -1, 0
				for _, r := range runsOf(dst, nil) {
					if r.Count <= 0 || r.Len <= 0 {
						continue
					}
					for m := range r.Count {
						src := r.From + m*r.Stride
						p, qq := 0, 0
						for s := range src {
							p += l[s][dst]
						}
						for d := range dst {
							qq += l[src][d]
						}
						switch {
						case src <= last || src >= n:
							t.Fatalf("n=%d %s: sender %d into %d out of order (after %d)", n, phase, src, dst, last)
						case r.Len != l[src][dst]:
							t.Fatalf("n=%d %s: stream %d->%d has %d words, the decomposition moves %d", n, phase, src, dst, r.Len, l[src][dst])
						case z != p:
							t.Fatalf("n=%d %s: stream %d->%d starts at %d, P = %d", n, phase, src, dst, z, p)
						case ((r.Shift-qq)%n+n)%n != 0:
							t.Fatalf("n=%d %s: stream %d->%d has shift %d, Q = %d", n, phase, src, dst, r.Shift, qq)
						}
						last, z = src, z+r.Len
						seen++
					}
				}
				want := 0
				for s := range n {
					if l[s][dst] > 0 {
						want++
					}
				}
				if seen != want {
					t.Fatalf("n=%d %s: %d streams into %d, the decomposition has %d", n, phase, seen, dst, want)
				}
			}
		}
	}
}

// TestMul3DRoundsMatchSchedule pins one product's rounds to the closed
// form of its three exchanges, and that form to at most 9 rounds at 8
// words per pair from n = 27 to 343 (routed per entry, a product took
// about 30 to 51).
func TestMul3DRoundsMatchSchedule(t *testing.T) {
	for _, n := range []int{27, 64, 125, 216, 343} {
		want := mul3dRounds(n, 8)
		if want > 9 {
			t.Errorf("n=%d: a product takes %d rounds at wpp 8, want at most 9", n, want)
		}
		if n > 216 && testing.Short() {
			continue
		}
		a := randomMatrix(n, 100, 1, MinPlus{}, uint64(n))
		_, res := runMulOn(t, clique.DefaultBackend, n, 8, Mul3D, MinPlus{}, a, a)
		if res.Stats.Rounds != want {
			t.Errorf("n=%d: product took %d rounds, schedule says %d", n, res.Stats.Rounds, want)
		}
	}
}

// TestMul3DPhasesCoverTheRun checks the trace marks: one each of
// mul3d/distribute, mul3d/reduce and mul3d/return, whose rounds sum to
// the product's.
func TestMul3DPhasesCoverTheRun(t *testing.T) {
	for _, n := range []int{8, 30, 64} {
		a := randomMatrix(n, 9, 0.5, MinPlus{}, uint64(n))
		col := trace.NewCollector("mul3d", n, 3)
		res, err := clique.Run(clique.Config{N: n, WordsPerPair: 3, Tracer: col}, func(nd *clique.Node) {
			Mul3D(nd, MinPlus{}, a[nd.ID()], a[nd.ID()])
		})
		if err != nil {
			t.Fatal(err)
		}
		count := map[string]int{}
		sum := 0
		for _, p := range col.Finish().Summary().Phases {
			count[p.Name]++
			sum += p.Rounds
		}
		for _, name := range []string{"mul3d/distribute", "mul3d/reduce", "mul3d/return"} {
			if count[name] != 1 {
				t.Errorf("n=%d: phases %v, want one %s", n, count, name)
			}
		}
		if sum != res.Stats.Rounds {
			t.Errorf("n=%d: phase rounds sum to %d, run has %d", n, sum, res.Stats.Rounds)
		}
	}
}

// FuzzMul3D holds Mul3D to MulLocal on ragged n, at per-pair budgets
// that split every exchange over rounds (1, 3) or not (8), over (min, +)
// with Inf and values above it and over the ring with negative
// entries; both backends must agree on Stats and on the closed-form
// rounds.
func FuzzMul3D(f *testing.F) {
	for i, n := range []int{1, 2, 7, 9, 28, 63, 65} {
		f.Add(uint64(i), uint8(n), uint8(i), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed uint64, rawN, rawWpp uint8, ring bool) {
		n := 1 + int(rawN)%72
		wpp := []int{1, 3, 8}[rawWpp%3]
		rng := rand.New(rand.NewPCG(seed, uint64(n)))
		var s Semiring = MinPlus{}
		entry := func() int64 { return minPlusEntry(rng) }
		if ring {
			s = Ring{}
			entry = func() int64 { return rng.Int64N(2001) - 1000 }
		}
		a, b := make([][]int64, n), make([][]int64, n)
		for i := range a {
			a[i], b[i] = make([]int64, n), make([]int64, n)
			for j := range a[i] {
				a[i][j], b[i][j] = entry(), entry()
			}
		}
		want := MulLocal(s, a, b)
		var ref *clique.Stats
		for _, backend := range clique.Backends() {
			got, res := runMulOn(t, backend, n, wpp, Mul3D, s, a, b)
			if !matEqual(got, want) {
				t.Fatalf("%s n=%d wpp=%d %s: 3D product differs from MulLocal", s.Name(), n, wpp, backend)
			}
			if res.Stats.Rounds != mul3dRounds(n, wpp) {
				t.Fatalf("n=%d wpp=%d %s: %d rounds, schedule says %d", n, wpp, backend, res.Stats.Rounds, mul3dRounds(n, wpp))
			}
			if ref == nil {
				ref = &res.Stats
			} else if res.Stats != *ref {
				t.Fatalf("n=%d wpp=%d: %s stats %+v, reference %+v", n, wpp, backend, res.Stats, *ref)
			}
		}
	})
}

// TestPlansForSharesWhileHeld holds the plan sharing to its contract:
// while anything holds a size's plans, every caller gets that one copy;
// once nothing does, a garbage collection frees them, so the process
// keeps nothing of a size no run is using.
func TestPlansForSharesWhileHeld(t *testing.T) {
	func() {
		held := plansFor(9)
		if plansFor(9) != held {
			t.Fatal("two calls at n = 9 built two plans while the first was held")
		}
	}()
	runtime.GC()
	sharedPlans.Lock()
	kept := sharedPlans.of[9].Value()
	sharedPlans.Unlock()
	if kept != nil {
		t.Error("n = 9's plans outlived their last holder and a collection")
	}
}
