package comm

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/clique"
)

// runBoth executes the node program on every backend and requires
// identical model Stats; it returns the per-backend results keyed by
// backend name. Collectives must be bit-equivalent across engines —
// that is the contract that lets algorithm packages ignore the backend.
func runBoth(t *testing.T, cfg clique.Config, f clique.NodeFunc) map[string]*clique.Result {
	t.Helper()
	out := map[string]*clique.Result{}
	for _, backend := range clique.Backends() {
		cfg := cfg
		cfg.Backend = backend
		res, err := clique.Run(cfg, f)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		out[backend] = res
	}
	ref := out[clique.Backends()[0]]
	for name, res := range out {
		if res.Stats != ref.Stats {
			t.Fatalf("stats diverge across backends: %s %+v vs %+v", name, res.Stats, ref.Stats)
		}
	}
	return out
}

// TestBroadcastAll: the flat table holds each sender's k words laid end
// to end at every node, in ceil(k/wpp) rounds on both backends, with a
// short last chunk where wpp does not divide k.
func TestBroadcastAll(t *testing.T) {
	for _, c := range []struct{ n, k, wpp int }{{6, 5, 1}, {5, 7, 3}, {4, 5, 2}, {3, 4, 4}, {6, 1, 3}} {
		want := make([]uint64, 0, c.n*c.k)
		for p := 0; p < c.n; p++ {
			for i := 0; i < c.k; i++ {
				want = append(want, uint64(p*100+i))
			}
		}
		res := runBoth(t, clique.Config{N: c.n, WordsPerPair: c.wpp}, func(nd *clique.Node) {
			got := BroadcastAll(nd, want[nd.ID()*c.k:(nd.ID()+1)*c.k], c.k)
			if !slices.Equal(got, want) {
				nd.Fail("n=%d k=%d wpp=%d: table %v, want %v", c.n, c.k, c.wpp, got, want)
			}
		})
		for backend, r := range res {
			if rounds := (c.k + c.wpp - 1) / c.wpp; r.Stats.Rounds != rounds {
				t.Errorf("%s n=%d k=%d wpp=%d: BroadcastAll rounds = %d, want %d", backend, c.n, c.k, c.wpp, r.Stats.Rounds, rounds)
			}
		}
	}
}

// TestBroadcastAllIntoReusesTable pins the Into form: a table reused
// across calls must hold exactly the latest broadcast, under a budget
// that splits each payload over two rounds, and a table of the wrong
// length fails the run before any round is spent.
func TestBroadcastAllIntoReusesTable(t *testing.T) {
	const n, k = 5, 3
	runBoth(t, clique.Config{N: n, WordsPerPair: 2}, func(nd *clique.Node) {
		table := make([]uint64, n*k)
		for call := 0; call < 3; call++ {
			words := make([]uint64, k)
			for i := range words {
				words[i] = uint64(call*1000 + nd.ID()*10 + i)
			}
			if got := BroadcastAllInto(nd, words, k, table); &got[0] != &table[0] {
				nd.Fail("call %d: BroadcastAllInto did not fill the caller's table", call)
			}
			for p := 0; p < n; p++ {
				for i, w := range table[p*k : (p+1)*k] {
					if w != uint64(call*1000+p*10+i) {
						nd.Fail("call %d: table[%d*k+%d] = %d", call, p, i, w)
					}
				}
			}
		}
	})
	for _, backend := range clique.Backends() {
		res, err := clique.Run(clique.Config{N: n, Backend: backend}, func(nd *clique.Node) {
			BroadcastAllInto(nd, make([]uint64, k), k, make([]uint64, n*k+1))
		})
		if want := "table has 16 words, want n*k=15"; err == nil || !strings.Contains(err.Error(), want) || res.Stats.Rounds != 0 {
			t.Errorf("%s: wrong-length table: err = %v after %d rounds, want %q after 0", backend, err, res.Stats.Rounds, want)
		}
	}
}

func TestBroadcastAllChunksAgainstBudget(t *testing.T) {
	const n, k = 4, 6
	res := runBoth(t, clique.Config{N: n, WordsPerPair: 3}, func(nd *clique.Node) {
		BroadcastAll(nd, make([]uint64, k), k)
	})
	for backend, r := range res {
		if r.Stats.Rounds != 2 { // ceil(6/3)
			t.Errorf("%s: rounds = %d, want 2", backend, r.Stats.Rounds)
		}
	}
}

func TestReductions(t *testing.T) {
	const n = 7
	runBoth(t, clique.Config{N: n}, func(nd *clique.Node) {
		if got := MaxWord(nd, uint64(nd.ID()*3)); got != 3*(n-1) {
			nd.Fail("MaxWord = %d", got)
		}
		if got := SumWord(nd, uint64(nd.ID())); got != n*(n-1)/2 {
			nd.Fail("SumWord = %d", got)
		}
		if !OrBool(nd, nd.ID() == 3) {
			nd.Fail("OrBool missed the one true vote")
		}
		if OrBool(nd, false) {
			nd.Fail("OrBool invented a vote")
		}
		if AndBool(nd, nd.ID() != 3) {
			nd.Fail("AndBool missed the one false vote")
		}
		if !AndBool(nd, true) {
			nd.Fail("AndBool rejected unanimity")
		}
	})
}

func TestBroadcastWordOK(t *testing.T) {
	const n = 5
	runBoth(t, clique.Config{N: n}, func(nd *clique.Node) {
		words, ok := BroadcastWordOK(nd, uint64(nd.ID()+10))
		for p := 0; p < n; p++ {
			if !ok[p] || words[p] != uint64(p+10) {
				nd.Fail("peer %d: ok=%v words=%d", p, ok[p], words[p])
			}
		}
	})
}

func TestFlags(t *testing.T) {
	const n = 8
	runBoth(t, clique.Config{N: n}, func(nd *clique.Node) {
		got := Flags(nd, nd.ID()%3 == 0)
		for p := 0; p < n; p++ {
			if got[p] != (p%3 == 0) {
				nd.Fail("flag of %d = %v", p, got[p])
			}
		}
	})
}

func TestFlagsCostsNothingWhenSilent(t *testing.T) {
	const n = 6
	res := runBoth(t, clique.Config{N: n}, func(nd *clique.Node) {
		Flags(nd, false)
	})
	for backend, r := range res {
		if r.Stats.WordsSent != 0 {
			t.Errorf("%s: silent Flags sent %d words", backend, r.Stats.WordsSent)
		}
		if r.Stats.Rounds != 1 {
			t.Errorf("%s: Flags rounds = %d, want 1", backend, r.Stats.Rounds)
		}
	}
}

func TestBroadcastRounds(t *testing.T) {
	const n, rounds = 5, 4
	res := runBoth(t, clique.Config{N: n}, func(nd *clique.Node) {
		// Node v broadcasts min(v+1, rounds) words; everyone
		// reconstructs everyone.
		words := make([]uint64, min(nd.ID()+1, rounds))
		for i := range words {
			words[i] = uint64(nd.ID()*10 + i)
		}
		seen := make(map[[2]int]uint64)
		BroadcastRounds(nd, words, rounds, func(r, from int, w uint64) {
			seen[[2]int{r, from}] = w
		})
		for from := 0; from < n; from++ {
			if from == nd.ID() {
				continue
			}
			for r := 0; r < rounds; r++ {
				w, there := seen[[2]int{r, from}]
				if r < min(from+1, rounds) {
					if !there || w != uint64(from*10+r) {
						nd.Fail("round %d from %d: got %d (present %v)", r, from, w, there)
					}
				} else if there {
					nd.Fail("round %d from %d: unexpected word %d", r, from, w)
				}
			}
		}
	})
	for backend, r := range res {
		if r.Stats.Rounds != rounds {
			t.Errorf("%s: rounds = %d, want %d", backend, r.Stats.Rounds, rounds)
		}
	}
}

func TestBroadcastFromChunks(t *testing.T) {
	const n, k, wpp = 6, 7, 3
	res := runBoth(t, clique.Config{N: n, WordsPerPair: wpp}, func(nd *clique.Node) {
		const root = 2
		var words []uint64
		if nd.ID() == root {
			words = make([]uint64, k)
			for i := range words {
				words[i] = uint64(1000 + i)
			}
		}
		got := BroadcastFrom(nd, root, words, k)
		if len(got) != k {
			nd.Fail("got %d words", len(got))
		}
		for i, w := range got {
			if w != uint64(1000+i) {
				nd.Fail("word %d = %d", i, w)
			}
		}
	})
	for backend, r := range res {
		if want := (k + wpp - 1) / wpp; r.Stats.Rounds != want {
			t.Errorf("%s: rounds = %d, want %d", backend, r.Stats.Rounds, want)
		}
	}
}

func TestAllToAllWord(t *testing.T) {
	const n = 6
	runBoth(t, clique.Config{N: n}, func(nd *clique.Node) {
		out := make([]uint64, n)
		for v := range out {
			out[v] = uint64(nd.ID()*n + v)
		}
		in, ok := AllToAllWord(nd, out)
		for p := 0; p < n; p++ {
			if !ok[p] || in[p] != uint64(p*n+nd.ID()) {
				nd.Fail("from %d: ok=%v in=%d", p, ok[p], in[p])
			}
		}
	})
}

func TestAllToAllStreams(t *testing.T) {
	// Raw stream exchange: node v owes each peer p the words
	// [v, p, v*p]; verify exact delivery across backends.
	const n = 5
	runBoth(t, clique.Config{N: n, WordsPerPair: 2}, func(nd *clique.Node) {
		queues := make([][]uint64, n)
		for p := 0; p < n; p++ {
			if p != nd.ID() {
				queues[p] = []uint64{uint64(nd.ID()), uint64(p), uint64(nd.ID() * p)}
			}
		}
		in := AllToAll(nd, queues)
		for p := 0; p < n; p++ {
			if p == nd.ID() {
				continue
			}
			want := []uint64{uint64(p), uint64(nd.ID()), uint64(p * nd.ID())}
			if !reflect.DeepEqual(in[p], want) {
				nd.Fail("stream from %d = %v, want %v", p, in[p], want)
			}
		}
	})
}

// TestAllToAllRejectsMisannouncedStreams scripts, through
// clique.Replay, a peer that announces a one-word stream in the length
// round and then sends more or fewer words: AllToAll must fail with its
// typed message on every backend rather than grow or pad the stream. A
// stream too long for the length round's 32-bit half fails before
// anything is sent.
func TestAllToAllRejectsMisannouncedStreams(t *testing.T) {
	const n = 3
	announce := uint64(1)<<32 | 1 // one word owed to node 0, longest stream 1
	cases := []struct {
		name string
		data []uint64
		want string
	}{
		{"longer", []uint64{7, 8}, "comm: AllToAll stream from 1 exceeds the 1 words announced"},
		{"shorter", nil, "comm: AllToAll stream from 1 has 0 words, 1 announced"},
	}
	for _, c := range cases {
		inbox := [][][]uint64{{nil, {announce}, {0}}, {nil, c.data, nil}}
		for _, backend := range clique.Backends() {
			cfg := clique.Config{N: n, WordsPerPair: 2, Backend: backend}
			_, err := clique.Replay(cfg, 0, func(nd *clique.Node) {
				AllToAll(nd, make([][]uint64, n))
			}, inbox)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s on %s: err = %v, want %q", c.name, backend, err, c.want)
			}
		}
	}
	for _, backend := range clique.Backends() {
		_, err := clique.Run(clique.Config{N: 2, Backend: backend}, func(nd *clique.Node) {
			sizes := make([]int, 2)
			sizes[1-nd.ID()] = 1 << 32
			allToAll(nd, sizes, nil, 0)
		})
		if want := "does not fit the length round"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("oversized stream on %s: err = %v, want %q", backend, err, want)
		}
	}
}

func TestBroadcastBitsRoundTrip(t *testing.T) {
	const n, k = 9, 23
	for _, backend := range clique.Backends() {
		tables := make([][]uint64, n)
		res, err := clique.Run(clique.Config{N: n, Backend: backend}, func(nd *clique.Node) {
			bits := make([]bool, k)
			for i := range bits {
				bits[i] = (nd.ID()+i)%3 == 0
			}
			tables[nd.ID()] = BroadcastBits(nd, bits)
		})
		if err != nil {
			t.Fatal(err)
		}
		wb := clique.WordBits(n)
		w := (k + wb - 1) / wb
		for v := 0; v < n; v++ {
			if len(tables[v]) != n*w {
				t.Fatalf("%s: node %d table has %d words, want n*w = %d", backend, v, len(tables[v]), n*w)
			}
			for p := 0; p < n; p++ {
				for i := 0; i < k; i++ {
					if got := tables[v][p*w+i/wb]>>(i%wb)&1 == 1; got != ((p+i)%3 == 0) {
						t.Fatalf("%s: node %d sees wrong bit %d of %d", backend, v, i, p)
					}
				}
			}
		}
		// Round count: ceil(k / WordBits(n)) at one word per pair.
		want := (k + clique.WordBits(n) - 1) / clique.WordBits(n)
		if res.Stats.Rounds != want {
			t.Errorf("%s: rounds = %d, want %d", backend, res.Stats.Rounds, want)
		}
	}
}

// routeInstance runs Route on a random (s, r)-style instance on every
// backend and checks exact multiset delivery plus cross-backend Stats.
func routeInstance(t *testing.T, n, perNode int, skewed bool, seed uint64) *clique.Result {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 99))
	sentTo := make([][][2]uint64, n) // per destination: (src, tag)
	instance := make([][]uint64, n)
	for v := 0; v < n; v++ {
		for i := 0; i < perNode; i++ {
			dst := rng.IntN(n)
			if skewed {
				dst = (v + 1) % n // everyone floods one neighbour pattern
			}
			if dst == v {
				dst = (dst + 1) % n
			}
			tag := uint64(v*1000 + i)
			instance[v] = append(instance[v], uint64(dst), tag)
			sentTo[dst] = append(sentTo[dst], [2]uint64{uint64(v), tag})
		}
	}
	var ref *clique.Result
	got := make([][]uint64, n)
	res := runBoth(t, clique.Config{N: n, WordsPerPair: 4}, func(nd *clique.Node) {
		got[nd.ID()] = Route(nd, instance[nd.ID()], 1, 42)
	})
	for v := 0; v < n; v++ {
		if len(got[v]) != 2*len(sentTo[v]) {
			t.Fatalf("node %d received %d words, want %d records", v, len(got[v]), len(sentTo[v]))
		}
		want := append([][2]uint64(nil), sentTo[v]...)
		have := make([][2]uint64, 0, len(want))
		for off := 0; off < len(got[v]); off += 2 {
			have = append(have, [2]uint64{got[v][off], got[v][off+1]})
		}
		sortPairs(want)
		sortPairs(have)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("node %d delivery mismatch: got %v want %v", v, have[i], want[i])
			}
		}
	}
	for _, r := range res {
		ref = r
	}
	return ref
}

func sortPairs(ps [][2]uint64) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}

func TestRouteUniform(t *testing.T) {
	routeInstance(t, 8, 10, false, 1)
}

func TestRouteSkewed(t *testing.T) {
	routeInstance(t, 8, 10, true, 2)
}

func TestRouteEmpty(t *testing.T) {
	const n = 5
	runBoth(t, clique.Config{N: n}, func(nd *clique.Node) {
		if out := Route(nd, nil, 1, 7); len(out) != 0 {
			nd.Fail("empty route returned %d words", len(out))
		}
	})
}

func TestRouteSelfAddressed(t *testing.T) {
	const n = 4
	runBoth(t, clique.Config{N: n, WordsPerPair: 4}, func(nd *clique.Node) {
		me := uint64(nd.ID())
		out := Route(nd, []uint64{me, me}, 1, 3)
		if !slices.Equal(out, []uint64{me, me}) {
			nd.Fail("self-route failed: %v", out)
		}
	})
}

func TestRouteWidePayload(t *testing.T) {
	const n = 5
	runBoth(t, clique.Config{N: n, WordsPerPair: 2}, func(nd *clique.Node) {
		var recs []uint64
		for dst := 0; dst < n; dst++ {
			if dst != nd.ID() {
				recs = append(recs, uint64(dst), uint64(nd.ID()), uint64(dst), 7)
			}
		}
		out := Route(nd, recs, 3, 11)
		if len(out) != 4*(n-1) {
			nd.Fail("got %d words, want %d records", len(out), n-1)
		}
		for off := 0; off < len(out); off += 4 {
			src, payload := out[off], out[off+1:off+4]
			if payload[0] != src || payload[1] != uint64(nd.ID()) || payload[2] != 7 {
				nd.Fail("corrupted payload %v from %d", payload, src)
			}
		}
	})
}

// TestRouteRejectsContractViolations pins Route's and RouteDirect's
// input checks: a ragged record run, a destination outside the clique,
// and (RouteDirect only) a record addressed to the sender.
func TestRouteRejectsContractViolations(t *testing.T) {
	const n = 4
	cases := map[string]func(nd *clique.Node){
		"ragged":          func(nd *clique.Node) { Route(nd, []uint64{1, 2, 3}, 1, 1) },
		"bad-destination": func(nd *clique.Node) { Route(nd, []uint64{n, 5}, 1, 1) },
		"direct-ragged":   func(nd *clique.Node) { RouteDirect(nd, []uint64{1}, 2) },
		"direct-bad-destination": func(nd *clique.Node) {
			RouteDirect(nd, []uint64{^uint64(0), 5}, 1)
		},
		"direct-self": func(nd *clique.Node) { RouteDirect(nd, []uint64{uint64(nd.ID()), 5}, 1) },
	}
	for name, f := range cases {
		for _, backend := range clique.Backends() {
			if _, err := clique.Run(clique.Config{N: n, Backend: backend}, f); err == nil {
				t.Errorf("%s on %s: run succeeded, want a contract violation", name, backend)
			}
		}
	}
}

func TestRouteScalesWithLoad(t *testing.T) {
	// Doubling the per-node load should roughly double the rounds, the
	// O(s + r) regime of Lenzen's theorem.
	r1 := routeInstance(t, 8, 8, false, 3).Stats.Rounds
	r2 := routeInstance(t, 8, 32, false, 3).Stats.Rounds
	if r2 < 2*r1/2 || r2 > 12*r1 {
		t.Errorf("rounds did not scale plausibly with load: %d -> %d", r1, r2)
	}
}

func TestDirectVsBalancedOnSkew(t *testing.T) {
	// Adversarial-for-direct instance: node 0 sends L records all to
	// node 1. Direct routing needs ~L rounds on the single link; the
	// balanced router spreads phase 1 across n intermediates.
	const n, L = 16, 64
	run := func(balanced bool) int {
		var rounds int
		for _, r := range runBoth(t, clique.Config{N: n, WordsPerPair: 4}, func(nd *clique.Node) {
			var recs []uint64
			if nd.ID() == 0 {
				for i := 0; i < L; i++ {
					recs = append(recs, 1, uint64(i))
				}
			}
			var got []uint64
			if balanced {
				got = Route(nd, recs, 1, 5)
			} else {
				got = RouteDirect(nd, recs, 1)
			}
			if nd.ID() == 1 && len(got) != 2*L {
				nd.Fail("node 1 got %d words, want %d records", len(got), L)
			}
		}) {
			rounds = r.Stats.Rounds
		}
		return rounds
	}
	direct, bal := run(false), run(true)
	if bal >= direct {
		t.Errorf("balanced router (%d rounds) not better than direct (%d rounds) on skewed instance", bal, direct)
	}
}

// TestCollectiveBackendEquivalence drives every collective in one node
// program on both backends and requires bit-identical outputs, Stats,
// and transcripts — the contract the migrated algorithm suite rests on.
func TestCollectiveBackendEquivalence(t *testing.T) {
	const n = 6
	type snapshot struct {
		stats       clique.Stats
		transcripts string
		outputs     string
	}
	shots := map[string]snapshot{}
	for _, backend := range clique.Backends() {
		outputs := make([]string, n)
		res, err := clique.Run(clique.Config{N: n, WordsPerPair: 3, Backend: backend, RecordTranscript: true},
			func(nd *clique.Node) {
				me := nd.ID()
				var log []any

				table := BroadcastAll(nd, []uint64{uint64(me), uint64(me * 2), uint64(me * 3)}, 3)
				log = append(log, table)
				log = append(log, BroadcastWord(nd, uint64(me+7)))
				log = append(log, MaxWord(nd, uint64(me*me)))
				log = append(log, SumWord(nd, uint64(me)))
				log = append(log, Flags(nd, me%2 == 0))
				words := make([]uint64, me%3)
				for i := range words {
					words[i] = uint64(me*100 + i)
				}
				heard := map[string]uint64{}
				BroadcastRounds(nd, words, 2, func(r, from int, w uint64) {
					heard[fmt.Sprintf("%d/%d", r, from)] = w
				})
				log = append(log, heard)
				var wit []uint64
				if me == 1 {
					wit = []uint64{3, 1, 4, 1, 5}
				}
				log = append(log, BroadcastFrom(nd, 1, wit, 5))
				out := make([]uint64, n)
				for v := range out {
					out[v] = uint64(me ^ v)
				}
				in, _ := AllToAllWord(nd, out)
				log = append(log, in)
				queues := make([][]uint64, n)
				for p := 0; p < n; p++ {
					if p != me {
						for j := 0; j < (me+p)%4; j++ {
							queues[p] = append(queues[p], uint64(me*1000+p*10+j))
						}
					}
				}
				log = append(log, AllToAll(nd, queues))
				log = append(log, Route(nd, []uint64{uint64((me + 1) % n), uint64(me), 9}, 2, 77))
				outputs[me] = fmt.Sprintf("%v", log)
			})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		var trs []string
		for _, tr := range res.Transcripts {
			trs = append(trs, fmt.Sprintf("%d:%v", tr.NodeID, tr.Rounds))
		}
		shots[backend] = snapshot{
			stats:       res.Stats,
			transcripts: fmt.Sprintf("%v", trs),
			outputs:     fmt.Sprintf("%v", outputs),
		}
	}
	ref := shots[clique.Backends()[0]]
	for backend, s := range shots {
		if s.stats != ref.stats {
			t.Errorf("%s stats = %+v, reference %+v", backend, s.stats, ref.stats)
		}
		if s.outputs != ref.outputs {
			t.Errorf("%s collective outputs diverge from reference", backend)
		}
		if s.transcripts != ref.transcripts {
			t.Errorf("%s transcripts diverge from reference", backend)
		}
	}
}

// TestRoutedPayloadsAreIndependent pins that the routers' result is
// caller-owned: overwriting or appending to a delivered record run
// changes neither the sender's input records nor what a later call
// with the same input delivers.
func TestRoutedPayloadsAreIndependent(t *testing.T) {
	const n, w = 6, 3
	routers := map[string]func(nd clique.Endpoint, recs []uint64) []uint64{
		"Route":       func(nd clique.Endpoint, recs []uint64) []uint64 { return Route(nd, recs, w, 9) },
		"RouteDirect": func(nd clique.Endpoint, recs []uint64) []uint64 { return RouteDirect(nd, recs, w) },
	}
	for name, route := range routers {
		runBoth(t, clique.Config{N: n, WordsPerPair: 2}, func(nd *clique.Node) {
			var recs []uint64
			for dst := 0; dst < n; dst++ {
				// Route also delivers records addressed to the sender,
				// which never touch the network.
				for i := 0; i < 3 && (dst != nd.ID() || name == "Route"); i++ {
					recs = append(recs, uint64(dst), uint64(nd.ID()), uint64(dst), uint64(i))
				}
			}
			sent := slices.Clone(recs)
			out := route(nd, recs)
			records := 3 * (n - 1)
			if name == "Route" {
				records += 3
			}
			if len(out) != records*(w+1) {
				nd.Fail("%s: got %d words, want %d records", name, len(out), records)
			}
			want := slices.Clone(out)
			for i := range out {
				out[i] = ^out[i]
			}
			_ = append(out[:len(out)/2], 0xdead, 0xbeef) // overwrites in place
			_ = append(out, 0xdead, 0xbeef)              // grows past the end
			if !slices.Equal(recs, sent) {
				nd.Fail("%s: writing the result changed the input records", name)
			}
			if again := route(nd, recs); !slices.Equal(again, want) {
				nd.Fail("%s: a later call delivered %v, want %v", name, again, want)
			}
		})
	}
}

// BenchmarkRoute times one balanced Route at the n = 216 shape of Figure
// 1's APSP matrix products: every node sends 2n width-2 records to
// destinations spread over the clique, at APSP's 8 words per pair, on
// every backend.
func BenchmarkRoute(b *testing.B) {
	const n, w, wpp = 216, 2, 8
	recs := make([][]uint64, n)
	for v := range recs {
		recs[v] = make([]uint64, 0, 2*n*(w+1))
		for j := 0; j < 2*n; j++ {
			recs[v] = append(recs[v], uint64((v*31+j*17)%n), uint64(j), uint64(v))
		}
	}
	for _, backend := range clique.Backends() {
		b.Run(backend, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := clique.Run(clique.Config{N: n, WordsPerPair: wpp, Backend: backend}, func(nd *clique.Node) {
					if got := Route(nd, recs[nd.ID()], w, 7); len(got) != 2*n*(w+1) {
						nd.Fail("delivered %d words, want %d records", len(got), 2*n)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
