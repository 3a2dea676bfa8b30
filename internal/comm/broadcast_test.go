package comm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/clique"
)

// TestBroadcastRejectsWrongLengths: a scripted peer (clique.Replay)
// that sends 0 or 2 words where the collective expects 1, or a stream
// that does not add up to k, fails the run at the replayed node with
// the per-peer receive's message, naming the peer, on both backends.
// A scripted peer never broadcasts, so these rounds have no shared
// table and take the Recv loop. BroadcastWordOK instead reports the
// peer as not delivered.
func TestBroadcastRejectsWrongLengths(t *testing.T) {
	const n = 3
	all := func(k int) func(nd *clique.Node) {
		return func(nd *clique.Node) { BroadcastAll(nd, make([]uint64, k), k) }
	}
	word := func(nd *clique.Node) { BroadcastWord(nd, 7) }
	cases := []struct {
		name  string
		f     func(nd *clique.Node)
		inbox [][][]uint64
		want  string
	}{
		{"word/two", word, [][][]uint64{{nil, {1}, {2, 3}}}, "node 0: comm: BroadcastWord received 2 words from 2, want 1"},
		{"word/none", word, [][][]uint64{{nil, nil, {2}}}, "node 0: comm: BroadcastWord received 0 words from 1, want 1"},
		{"all/k=1/two", all(1), [][][]uint64{{nil, {1}, {2, 3}}}, "node 0: comm: BroadcastAll received 2 words from 2, want 1"},
		{"all/k=1/none", all(1), [][][]uint64{{nil, nil, {2}}}, "node 0: comm: BroadcastAll received 0 words from 1, want 1"},
		{"all/k=3/long", all(3), [][][]uint64{{nil, {1, 2}, {3, 4}}, {nil, {5}, {6, 7}}}, "node 0: comm: BroadcastAll received 4 words from 2, want 3"},
		{"all/k=3/short", all(3), [][][]uint64{{nil, {1, 2}, {3, 4}}, {nil, nil, {6}}}, "node 0: comm: BroadcastAll received 2 words from 1, want 3"},
	}
	for _, c := range cases {
		for _, backend := range clique.Backends() {
			cfg := clique.Config{N: n, WordsPerPair: 2, Backend: backend}
			_, err := clique.Replay(cfg, 0, c.f, c.inbox)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s on %s: err = %v, want %q", c.name, backend, err, c.want)
			}
		}
	}
	for _, backend := range clique.Backends() {
		var words []uint64
		var ok []bool
		cfg := clique.Config{N: n, WordsPerPair: 2, Backend: backend}
		_, err := clique.Replay(cfg, 0, func(nd *clique.Node) { words, ok = BroadcastWordOK(nd, 7) },
			[][][]uint64{{nil, {1, 2}, nil}})
		if err != nil || !slices.Equal(ok, []bool{true, false, false}) || !slices.Equal(words, []uint64{7, 0, 0}) {
			t.Errorf("BroadcastWordOK on %s: words %v ok %v err %v, want [7 0 0] [true false false]", backend, words, ok, err)
		}
	}
}

// TestBroadcastWordIntoWrongLength: a table of the wrong length fails
// before the broadcast is staged, so the run spends no round.
func TestBroadcastWordIntoWrongLength(t *testing.T) {
	const n = 4
	for _, backend := range clique.Backends() {
		res, err := clique.Run(clique.Config{N: n, Backend: backend}, func(nd *clique.Node) {
			BroadcastWordInto(nd, 1, make([]uint64, n-1))
		})
		if want := "BroadcastWordInto table has 3 entries, want n=4"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", backend, err, want)
		}
		if res.Stats.Rounds != 0 || res.Stats.WordsSent != 0 {
			t.Errorf("%s: failing run spent %d rounds and %d words, want none", backend, res.Stats.Rounds, res.Stats.WordsSent)
		}
	}
}

// TestBroadcastTablesAreCallerOwned: every broadcast collective returns
// the node's own copy. Node 0 overwrites each table it gets as soon as
// it gets it; every other node must still hold the true table. On
// lockstep the rounds are uniform, so the engine kept a shared table
// for each of them and the collectives read it.
func TestBroadcastTablesAreCallerOwned(t *testing.T) {
	const n, k, bits = 6, 3, 70
	for _, backend := range clique.Backends() {
		_, err := clique.Run(clique.Config{N: n, WordsPerPair: 2, Backend: backend}, func(nd *clique.Node) {
			me := nd.ID()
			scribble := func(t []uint64) {
				if me == 0 {
					for i := range t {
						t[i] = 999
					}
				}
			}
			check := func(name string, got, want []uint64) {
				if me != 0 && !slices.Equal(got, want) {
					nd.Fail("%s: %v, want %v", name, got, want)
				}
			}
			shared := func(name string, width int) {
				if backend == "lockstep" && nd.BroadcastTable(width) == nil {
					nd.Fail("%s: lockstep kept no shared table for a uniform round", name)
				}
			}

			got := BroadcastWordInto(nd, uint64(10+me), nil)
			shared("BroadcastWordInto", 1)
			scribble(got)
			want := make([]uint64, n)
			for p := range want {
				want[p] = uint64(10 + p)
			}
			check("BroadcastWordInto", got, want)

			got, _ = BroadcastWordOK(nd, uint64(20+me))
			shared("BroadcastWordOK", 1)
			scribble(got)
			for p := range want {
				want[p] = uint64(20 + p)
			}
			check("BroadcastWordOK", got, want)

			mine := []uint64{uint64(me), uint64(me + 100), uint64(me + 200)}
			got = BroadcastAll(nd, mine, k)
			shared("BroadcastAll", 1) // the last chunk: 1 of k = 3 words at wpp 2
			scribble(got)
			want = want[:0]
			for p := 0; p < n; p++ {
				want = append(want, uint64(p), uint64(p+100), uint64(p+200))
			}
			check("BroadcastAll", got, want)

			rows := BroadcastBitRows(nd, testRow(me, bits), bits)
			shared("BroadcastBitRows", bitvec.Words(bits)) // one round of 2 words
			for _, r := range rows {
				scribble(r)
			}
			for p, r := range rows {
				check(fmt.Sprintf("BroadcastBitRows row %d", p), r, testRow(p, bits))
			}
		})
		if err != nil {
			t.Errorf("%s: %v", backend, err)
		}
	}
}

// BenchmarkBroadcastWord is comm.BroadcastWordInto at sweep-large scale
// on the lockstep backend: every node broadcasts one word a round into
// one reused table, 8 rounds a run. On these uniform rounds each node
// fills its table with one copy of the engine's shared table instead
// of n−1 Recv calls.
func BenchmarkBroadcastWord(b *testing.B) {
	const roundsPerRun = 8
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := clique.Run(clique.Config{N: n, Backend: "lockstep"}, func(nd *clique.Node) {
					table := make([]uint64, n)
					var sum uint64
					for r := 0; r < roundsPerRun; r++ {
						BroadcastWordInto(nd, uint64(nd.ID()+r), table)
						sum += table[(nd.ID()+1)%n]
					}
					if sum == 0 {
						nd.Fail("no words received")
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(roundsPerRun)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
		})
	}
}
