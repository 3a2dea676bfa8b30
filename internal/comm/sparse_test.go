package comm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/clique"
)

func TestSendToFewDelivers(t *testing.T) {
	const n = 6
	for _, backend := range clique.Backends() {
		got := make([][][]uint64, n)
		res, err := clique.Run(clique.Config{N: n, WordsPerPair: 2, Backend: backend}, func(nd *clique.Node) {
			me := nd.ID()
			// Node v messages v+1 mod n with a (v+1)-word payload and,
			// when even, node 0 with one word. Sparse: most links idle.
			var msgs []Msg
			words := make([]uint64, me+1)
			for i := range words {
				words[i] = uint64(me*100 + i)
			}
			if dst := (me + 1) % n; dst != me {
				msgs = append(msgs, Msg{To: dst, Words: words})
			}
			if me%2 == 0 && me != 0 {
				msgs = append(msgs, Msg{To: 0, Words: []uint64{uint64(me)}})
			}
			got[me] = deliveryTable(n, SendToFew(nd, msgs, 3, nil))
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Stats.Rounds != 3 {
			t.Errorf("%s: rounds = %d, want 3", backend, res.Stats.Rounds)
		}
		for v := 0; v < n; v++ {
			src := (v + n - 1) % n
			want := make([]uint64, src+1)
			for i := range want {
				want[i] = uint64(src*100 + i)
			}
			if fmt.Sprintf("%v", got[v][src]) != fmt.Sprintf("%v", want) {
				t.Fatalf("%s: node %d got %v from %d, want %v", backend, v, got[v][src], src, want)
			}
			for p := 0; p < n; p++ {
				if p == src || p == v {
					continue
				}
				if v == 0 && p%2 == 0 && p != 0 {
					if len(got[0][p]) != 1 || got[0][p][0] != uint64(p) {
						t.Fatalf("%s: node 0 got %v from %d", backend, got[0][p], p)
					}
					continue
				}
				if got[v][p] != nil {
					t.Fatalf("%s: node %d heard silent peer %d: %v", backend, v, p, got[v][p])
				}
			}
		}
	}
}

// deliveryTable spreads a SendToFew receive list into a table indexed
// by sender, nil for silence, checking the list is strictly ascending.
func deliveryTable(n int, ds []Delivery) [][]uint64 {
	table := make([][]uint64, n)
	for i, d := range ds {
		if i > 0 && ds[i-1].From >= d.From {
			panic(fmt.Sprintf("SendToFew receive list not ascending: %d after %d", d.From, ds[i-1].From))
		}
		table[d.From] = d.Words
	}
	return table
}

// TestSendToFewReusesBuffer checks the caller-reused receive list:
// passing the previous result truncated to zero length refills the
// same entries and word buffers, appends after existing entries keep
// them, and the list stays sender-ascending across calls whose sender
// sets differ.
func TestSendToFewReusesBuffer(t *testing.T) {
	const n, calls = 9, 4
	for _, backend := range clique.Backends() {
		_, err := clique.Run(clique.Config{N: n, WordsPerPair: 2, Backend: backend}, func(nd *clique.Node) {
			me := nd.ID()
			var in []Delivery
			for c := 0; c < calls; c++ {
				// In call c, node v sends c+1+v%3 words to (v+c+1) mod n
				// when (v+c) is odd; the rest stay silent.
				var msgs []Msg
				if (me+c)%2 == 1 {
					words := make([]uint64, c+1+me%3)
					for i := range words {
						words[i] = uint64(1000*c + 10*me + i)
					}
					msgs = append(msgs, Msg{To: (me + c + 1) % n, Words: words})
				}
				prev := in
				in = SendToFew(nd, msgs, 3, in[:0])
				if len(prev) > 0 && len(in) > 0 && &prev[0] != &in[0] {
					nd.Fail("call %d reallocated a list with room to spare", c)
				}
				src := (me - c - 1 + 2*n) % n
				var want []Delivery
				if (src+c)%2 == 1 {
					words := make([]uint64, c+1+src%3)
					for i := range words {
						words[i] = uint64(1000*c + 10*src + i)
					}
					want = append(want, Delivery{From: src, Words: words})
				}
				if fmt.Sprint(in) != fmt.Sprint(want) {
					nd.Fail("call %d got %v, want %v", c, in, want)
				}
				if c == calls-1 {
					// Appending keeps the entries already in the list.
					keep := append([]Delivery{{From: -1}}, in...)
					out := SendToFew(nd, nil, 1, keep)
					if len(out) != len(keep) || out[0].From != -1 {
						nd.Fail("append form dropped entries: %v", out)
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
	}
}

// TestSendToFewCostsOnlyMessages pins the sparse cost model: total
// words sent equals the words queued, not n² per round.
func TestSendToFewCostsOnlyMessages(t *testing.T) {
	const n = 16
	res := runBoth(t, clique.Config{N: n, WordsPerPair: 4}, func(nd *clique.Node) {
		var msgs []Msg
		if nd.ID() == 3 {
			msgs = append(msgs, Msg{To: 7, Words: []uint64{1, 2, 3, 4, 5}})
		}
		SendToFew(nd, msgs, 2, nil)
	})
	for backend, r := range res {
		if r.Stats.WordsSent != 5 {
			t.Errorf("%s: WordsSent = %d, want 5 (only the queued message)", backend, r.Stats.WordsSent)
		}
		if r.Stats.Rounds != 2 {
			t.Errorf("%s: rounds = %d, want 2", backend, r.Stats.Rounds)
		}
	}
}

// TestSendToFewRejectsContractViolations pins every SendToFew
// contract check on both backends: a repeated destination, a message
// to self or outside 0..n-1, and a message longer than rounds·wpp
// must each fail the run, whether the bad message travels alone or
// beside valid ones.
func TestSendToFewRejectsContractViolations(t *testing.T) {
	const n, wpp, rounds = 6, 2, 2
	ok := Msg{To: 4, Words: []uint64{9}}
	cases := []struct {
		name string
		msgs []Msg
		want string
	}{
		{"duplicate", []Msg{{To: 2, Words: []uint64{1}}, {To: 2, Words: []uint64{2}}}, "two messages for 2"},
		{"duplicate after others", []Msg{{To: 2, Words: []uint64{1}}, ok, {To: 2, Words: []uint64{2}}}, "two messages for 2"},
		{"self", []Msg{{To: 1, Words: []uint64{1}}}, "message to 1 from 1"},
		{"self beside others", []Msg{ok, {To: 1, Words: []uint64{1}}}, "message to 1 from 1"},
		{"out of range high", []Msg{{To: n, Words: []uint64{1}}}, "message to 6 from 1"},
		{"out of range low", []Msg{ok, {To: -1, Words: []uint64{1}}}, "message to -1 from 1"},
		{"oversize", []Msg{{To: 3, Words: make([]uint64, rounds*wpp+1)}}, "exceeds 2 rounds x 2 wpp"},
		{"oversize beside others", []Msg{ok, {To: 3, Words: make([]uint64, rounds*wpp+1)}}, "exceeds 2 rounds x 2 wpp"},
	}
	for _, backend := range clique.Backends() {
		for _, tc := range cases {
			_, err := clique.Run(clique.Config{N: n, WordsPerPair: wpp, Backend: backend}, func(nd *clique.Node) {
				var msgs []Msg
				if nd.ID() == 1 {
					msgs = tc.msgs
				}
				SendToFew(nd, msgs, rounds, nil)
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s/%s: want error containing %q, got %v", backend, tc.name, tc.want, err)
			}
		}
	}
}

func TestSampledBroadcast(t *testing.T) {
	const n, k = 8, 5
	for _, backend := range clique.Backends() {
		got := make([][][]uint64, n)
		res, err := clique.Run(clique.Config{N: n, WordsPerPair: 2, Backend: backend}, func(nd *clique.Node) {
			me := nd.ID()
			active := me%3 == 0
			var words []uint64
			if active {
				words = make([]uint64, k)
				for i := range words {
					words[i] = uint64(me*10 + i)
				}
			}
			got[me] = SampledBroadcast(nd, words, k, active)
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if want := (k + 1) / 2; res.Stats.Rounds != want {
			t.Errorf("%s: rounds = %d, want %d", backend, res.Stats.Rounds, want)
		}
		for v := 0; v < n; v++ {
			for p := 0; p < n; p++ {
				if p%3 == 0 {
					if len(got[v][p]) != k || got[v][p][0] != uint64(p*10) {
						t.Fatalf("%s: node %d table[%d] = %v", backend, v, p, got[v][p])
					}
				} else if got[v][p] != nil {
					t.Fatalf("%s: node %d heard silent peer %d", backend, v, p)
				}
			}
		}
	}
}

// TestSampledBroadcastSilenceIsFree: zero active nodes, zero words.
func TestSampledBroadcastSilenceIsFree(t *testing.T) {
	res := runBoth(t, clique.Config{N: 8}, func(nd *clique.Node) {
		SampledBroadcast(nd, nil, 4, false)
	})
	for backend, r := range res {
		if r.Stats.WordsSent != 0 {
			t.Errorf("%s: WordsSent = %d, want 0", backend, r.Stats.WordsSent)
		}
	}
}

// TestSparseCollectiveBackendEquivalence is the transcript-level
// cross-backend gate for the sparse collectives, mirroring
// TestCollectiveBackendEquivalence for the dense ones.
func TestSparseCollectiveBackendEquivalence(t *testing.T) {
	const n = 7
	type snapshot struct {
		stats       clique.Stats
		transcripts string
		outputs     string
	}
	shots := map[string]snapshot{}
	for _, backend := range clique.Backends() {
		outputs := make([]string, n)
		res, err := clique.Run(clique.Config{N: n, WordsPerPair: 2, Backend: backend, RecordTranscript: true},
			func(nd *clique.Node) {
				me := nd.ID()
				var log []any
				var msgs []Msg
				for p := 0; p < n; p++ {
					if p != me && (me+p)%3 == 0 {
						msgs = append(msgs, Msg{To: p, Words: []uint64{uint64(me*100 + p), uint64(p)}})
					}
				}
				log = append(log, SendToFew(nd, msgs, 2, nil))
				var words []uint64
				if me%2 == 1 {
					words = []uint64{uint64(me), uint64(me * me), uint64(me + 42)}
				}
				log = append(log, SampledBroadcast(nd, words, 3, me%2 == 1))
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
			t.Errorf("%s sparse collective outputs diverge from reference", backend)
		}
		if s.transcripts != ref.transcripts {
			t.Errorf("%s transcripts diverge from reference", backend)
		}
	}
}

// sendToFewBenchCalls is the number of SendToFew calls one benchmark
// op makes, enough that the collective, not run setup, dominates.
const sendToFewBenchCalls = 32

// BenchmarkSendToFew times the message-frugal MST shape at n = 1024:
// about 1% of the nodes (every hundredth) send one two-word message
// per call and everyone else is silent, over sendToFewBenchCalls calls
// in one lockstep run that reuse their receive list. A silent round
// should cost each receiver O(senders + n/64) and allocate nothing in
// proportion to n, so ns/op and allocs/op track the senders that
// spoke, not n.
func BenchmarkSendToFew(b *testing.B) {
	const n = 1024
	dst := func(v int) int { return (v*37 + 1) % n }
	hits := make([]int, n)
	for v := 0; v < n; v += 100 {
		hits[dst(v)]++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := clique.Run(clique.Config{N: n, WordsPerPair: 2, Backend: "lockstep"}, func(nd *clique.Node) {
			me := nd.ID()
			var msgs []Msg
			if me%100 == 0 {
				msgs = []Msg{{To: dst(me), Words: []uint64{uint64(me), 1}}}
			}
			var in []Delivery
			got := 0
			for c := 0; c < sendToFewBenchCalls; c++ {
				in = SendToFew(nd, msgs, 1, in[:0])
				got += len(in)
			}
			if got != sendToFewBenchCalls*hits[me] {
				nd.Fail("received %d messages, want %d", got, sendToFewBenchCalls*hits[me])
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
