package comm

import (
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/clique"
)

func testRow(me, bits int) bitvec.Row {
	r := bitvec.NewRow(bits)
	for i := 0; i < bits; i++ {
		if (me+i)%3 == 0 {
			r.Set(i)
		}
	}
	return r
}

func TestBroadcastBitRowsRoundTrip(t *testing.T) {
	const n, bits, wpp = 6, 130, 1
	res := runBoth(t, clique.Config{N: n, WordsPerPair: wpp}, func(nd *clique.Node) {
		table := BroadcastBitRows(nd, testRow(nd.ID(), bits), bits)
		for p := 0; p < n; p++ {
			if !table[p].Equal(testRow(p, bits)) {
				nd.Fail("row from %d corrupted", p)
			}
		}
	})
	want := bitvec.Words(bits) // ceil(130/64) = 3 words at wpp 1
	for backend, r := range res {
		if r.Stats.Rounds != want {
			t.Errorf("%s: rounds = %d, want %d", backend, r.Stats.Rounds, want)
		}
	}
}

func TestBroadcastBitRowsChunksAgainstBudget(t *testing.T) {
	const n, bits, wpp = 4, 300, 2 // 5 words -> 3 rounds
	res := runBoth(t, clique.Config{N: n, WordsPerPair: wpp}, func(nd *clique.Node) {
		BroadcastBitRows(nd, bitvec.NewRow(bits), bits)
	})
	for backend, r := range res {
		if r.Stats.Rounds != 3 {
			t.Errorf("%s: rounds = %d, want 3", backend, r.Stats.Rounds)
		}
	}
}

func TestBroadcastBitRowsInto(t *testing.T) {
	// The Into form must fill a caller-carved table without surprises
	// and leave each row at exactly the packed width.
	const n, bits = 5, 100
	w := bitvec.Words(bits)
	runBoth(t, clique.Config{N: n}, func(nd *clique.Node) {
		buf := make([]uint64, n*w)
		table := make([]bitvec.Row, n)
		for i := range table {
			table[i] = bitvec.Row(buf[i*w : i*w : (i+1)*w])
		}
		got := BroadcastBitRowsInto(nd, testRow(nd.ID(), bits), bits, table)
		for p := 0; p < n; p++ {
			if len(got[p]) != w || !got[p].Equal(testRow(p, bits)) {
				nd.Fail("row from %d corrupted in Into table", p)
			}
		}
	})
}

func TestAllToAllFixedWidths(t *testing.T) {
	const n = 5
	for _, k := range []int{0, 1, 3, 8} {
		res := runBoth(t, clique.Config{N: n, WordsPerPair: 3}, func(nd *clique.Node) {
			me := nd.ID()
			out := make([][]uint64, n)
			for v := range out {
				out[v] = make([]uint64, k)
				for i := range out[v] {
					out[v][i] = uint64(me*1000 + v*10 + i)
				}
			}
			in := AllToAllFixed(nd, out, k)
			for p := 0; p < n; p++ {
				for i := 0; i < k; i++ {
					if in[p][i] != uint64(p*1000+me*10+i) {
						nd.Fail("word %d from %d = %d", i, p, in[p][i])
					}
				}
			}
		})
		want := (k + 2) / 3
		for backend, r := range res {
			if r.Stats.Rounds != want {
				t.Errorf("%s k=%d: rounds = %d, want %d", backend, k, r.Stats.Rounds, want)
			}
		}
	}
}

// TestPackedCollectiveBackendEquivalence drives the packed collectives
// in one node program on both backends and requires bit-identical
// outputs, Stats, and transcripts — the same contract the scalar
// collectives carry, extended to the packed plane.
func TestPackedCollectiveBackendEquivalence(t *testing.T) {
	const n, bits = 6, 77
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
				log = append(log, BroadcastBitRows(nd, testRow(me, bits), bits))
				out := make([][]uint64, n)
				for v := range out {
					out[v] = []uint64{uint64(me), uint64(v), uint64(me * v)}
				}
				log = append(log, AllToAllFixed(nd, out, 3))
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
			t.Errorf("%s packed collective outputs diverge from reference", backend)
		}
		if s.transcripts != ref.transcripts {
			t.Errorf("%s packed collective transcripts diverge from reference", backend)
		}
	}
}
