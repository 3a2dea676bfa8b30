package comm

import (
	"repro/internal/clique"
	"repro/internal/trace"
)

// chunk returns the half-open word range [off, end) of the round that
// starts at off when moving k words under a per-link budget of wpp.
func chunkEnd(off, k, wpp int) int {
	end := off + wpp
	if end > k {
		end = k
	}
	return end
}

// BroadcastAll has every node contribute exactly k words; it returns,
// at every node, the full table indexed by sender. Each node's own
// entry is a copy of its input. Takes ceil(k / wordsPerPair) rounds:
// optimal up to constants, since every node must receive (n-1)k words
// over n-1 links.
func BroadcastAll(nd clique.Endpoint, words []uint64, k int) [][]uint64 {
	return BroadcastAllInto(nd, words, k, nil)
}

// BroadcastAllInto is BroadcastAll refilling a caller-provided table of
// n rows (allocated when nil), each row truncated and reused, so
// protocols that broadcast every phase allocate the table once.
func BroadcastAllInto(nd clique.Endpoint, words []uint64, k int, out [][]uint64) [][]uint64 {
	defer trace.Op(nd, "BroadcastAll", k)()
	if len(words) != k {
		nd.Fail("comm: BroadcastAll given %d words, contract is exactly k=%d", len(words), k)
	}
	n := nd.N()
	me := nd.ID()
	if out == nil {
		out = make([][]uint64, n)
	} else if len(out) != n {
		nd.Fail("comm: BroadcastAllInto table has %d entries, want n=%d", len(out), n)
	}
	// Fresh rows are carved from one n·k-word array instead of n
	// allocations: SketchFind builds an n-row table per node per run.
	var fresh []uint64
	for i := range out {
		if out[i] == nil {
			if fresh == nil {
				fresh = make([]uint64, n*k)
			}
			out[i] = fresh[i*k : i*k : (i+1)*k]
		} else {
			out[i] = out[i][:0]
		}
	}
	out[me] = append(out[me], words...)

	wpp := nd.WordsPerPair()
	for off := 0; off < k; off += wpp {
		nd.BroadcastWords(words[off:chunkEnd(off, k, wpp)])
		nd.Tick()
		for p := 0; p < n; p++ {
			if p != me {
				out[p] = nd.RecvInto(p, out[p])
			}
		}
	}
	for p := 0; p < n; p++ {
		if len(out[p]) != k {
			nd.Fail("comm: BroadcastAll received %d words from %d, want %d", len(out[p]), p, k)
		}
	}
	return out
}

// BroadcastWord is BroadcastAll for a single word per node: one round,
// returning the flat table indexed by sender (own entry included).
func BroadcastWord(nd clique.Endpoint, w uint64) []uint64 {
	return BroadcastWordInto(nd, w, nil)
}

// BroadcastWordInto is BroadcastWord writing into a caller-provided
// table of length n (allocated when nil), so iterative protocols that
// broadcast every round reuse one buffer.
func BroadcastWordInto(nd clique.Endpoint, w uint64, into []uint64) []uint64 {
	defer trace.Op(nd, "BroadcastWord", 1)()
	n := nd.N()
	me := nd.ID()
	buf := nd.BroadcastBuf(1)
	buf[0] = w
	nd.Tick()
	if into == nil {
		into = make([]uint64, n)
	} else if len(into) != n {
		nd.Fail("comm: BroadcastWordInto table has %d entries, want n=%d", len(into), n)
	}
	into[me] = w
	for p := 0; p < n; p++ {
		if p == me {
			continue
		}
		got := nd.Recv(p)
		if len(got) != 1 {
			nd.Fail("comm: BroadcastWord received %d words from %d, want 1", len(got), p)
		}
		into[p] = got[0]
	}
	return into
}

// BroadcastWordOK is BroadcastWord for protocols whose peers may fail
// to deliver exactly one word (nondeterministic verifiers replayed
// against adversarial transcripts, for instance): instead of aborting,
// it reports per-sender whether exactly one word arrived. Entries with
// ok[p] == false hold zero.
func BroadcastWordOK(nd clique.Endpoint, w uint64) (words []uint64, ok []bool) {
	defer trace.Op(nd, "BroadcastWordOK", 1)()
	n := nd.N()
	me := nd.ID()
	buf := nd.BroadcastBuf(1)
	buf[0] = w
	nd.Tick()
	words = make([]uint64, n)
	ok = make([]bool, n)
	words[me], ok[me] = w, true
	for p := 0; p < n; p++ {
		if p == me {
			continue
		}
		if got := nd.Recv(p); len(got) == 1 {
			words[p], ok[p] = got[0], true
		}
	}
	return words, ok
}

// MaxWord computes the global maximum of one word per node in one round.
func MaxWord(nd clique.Endpoint, w uint64) uint64 {
	max := uint64(0)
	for _, x := range BroadcastWord(nd, w) {
		if x > max {
			max = x
		}
	}
	return max
}

// SumWord computes the global sum of one word per node in one round.
func SumWord(nd clique.Endpoint, w uint64) uint64 {
	total := uint64(0)
	for _, x := range BroadcastWord(nd, w) {
		total += x
	}
	return total
}

// OrBool computes the global OR of one bit per node in one round; every
// node returns the same decision, as the model requires.
func OrBool(nd clique.Endpoint, b bool) bool {
	return MaxWord(nd, clique.BoolWord(b)) != 0
}

// AndBool computes the global AND of one bit per node in one round.
func AndBool(nd clique.Endpoint, b bool) bool {
	return MaxWord(nd, clique.BoolWord(!b)) == 0
}

// Flags is the presence-coded announcement round: nodes with flag set
// broadcast a single word, the rest send nothing, and every node
// returns who announced (its own entry is its own flag). One round;
// only announcing nodes spend budget.
func Flags(nd clique.Endpoint, flag bool) []bool {
	defer trace.Op(nd, "Flags", 1)()
	n := nd.N()
	me := nd.ID()
	if flag {
		buf := nd.BroadcastBuf(1)
		buf[0] = 1
	}
	nd.Tick()
	got := make([]bool, n)
	got[me] = flag
	for _, p := range nd.Senders(nil) {
		got[p] = true
	}
	return got
}

// BroadcastRounds runs exactly `rounds` one-word broadcast rounds: in
// round r, a node broadcasts words[r] if r < len(words) and stays
// silent otherwise, and `on` is invoked for every word received from a
// peer (the caller's own words are not echoed back). The fixed round
// count keeps yes- and no-instances indistinguishable by cost, the
// shape of the paper's kernelisation protocols (Theorem 11).
func BroadcastRounds(nd clique.Endpoint, words []uint64, rounds int, on func(round, from int, w uint64)) {
	defer trace.Op(nd, "BroadcastRounds", len(words))()
	if len(words) > rounds {
		nd.Fail("comm: BroadcastRounds has %d words but only %d rounds", len(words), rounds)
	}
	var senders []int
	for r := 0; r < rounds; r++ {
		if r < len(words) {
			buf := nd.BroadcastBuf(1)
			buf[0] = words[r]
		}
		nd.Tick()
		senders = nd.Senders(senders[:0])
		for _, p := range senders {
			if got := nd.Recv(p); len(got) == 1 {
				on(r, p, got[0])
			}
		}
	}
}

// BroadcastFrom ships k words from node root to every node, in
// ceil(k / wordsPerPair) rounds. All nodes must agree on root and k;
// only the root's words argument is consulted (it must hold exactly k
// words), and every node returns the k words, the root its own slice.
func BroadcastFrom(nd clique.Endpoint, root int, words []uint64, k int) []uint64 {
	defer trace.Op(nd, "BroadcastFrom", k)()
	me := nd.ID()
	if root < 0 || root >= nd.N() {
		nd.Fail("comm: BroadcastFrom root %d out of range", root)
	}
	if me == root && len(words) != k {
		nd.Fail("comm: BroadcastFrom root holds %d words, contract is exactly k=%d", len(words), k)
	}
	wpp := nd.WordsPerPair()
	var out []uint64
	if me != root && k > 0 {
		out = make([]uint64, 0, k)
	}
	for off := 0; off < k; off += wpp {
		if me == root {
			nd.BroadcastWords(words[off:chunkEnd(off, k, wpp)])
		}
		nd.Tick()
		if me != root {
			out = nd.RecvInto(root, out)
		}
	}
	if me == root {
		return words
	}
	if len(out) != k {
		nd.Fail("comm: BroadcastFrom received %d words from root %d, want %d", len(out), root, k)
	}
	return out
}

// AllToAllWord is the one-word personalised exchange: node v receives
// out[p] from every peer p, in one round over the zero-copy send path.
// The returned ok flags report which peers delivered exactly one word
// (own entry always true, set to out[me]); protocols replayed against
// adversarial transcripts use them instead of trusting the wire.
func AllToAllWord(nd clique.Endpoint, out []uint64) (in []uint64, ok []bool) {
	defer trace.Op(nd, "AllToAllWord", nd.N()-1)()
	n := nd.N()
	me := nd.ID()
	if len(out) != n {
		nd.Fail("comm: AllToAllWord given %d words, want one per node (n=%d)", len(out), n)
	}
	for v := 0; v < n; v++ {
		if v != me {
			buf := nd.SendBuf(v, 1)
			buf[0] = out[v]
		}
	}
	nd.Tick()
	in = make([]uint64, n)
	ok = make([]bool, n)
	in[me], ok[me] = out[me], true
	for v := 0; v < n; v++ {
		if v == me {
			continue
		}
		if got := nd.Recv(v); len(got) == 1 {
			in[v], ok[v] = got[0], true
		}
	}
	return in, ok
}

// AllToAll delivers arbitrary per-destination word streams: queue[t] is
// the stream this node owes node t (queue[own id] must be empty). All
// nodes agree on the number of rounds via a one-round max-reduction,
// then ship wordsPerPair words per link per round. Returns the
// concatenated stream received from each sender (nil for senders that
// owed nothing). Rounds: 1 + ceil(maxLinkLoad / wordsPerPair).
//
// Every non-empty stream starts in the first data round, so that round's
// senders are the only ones. A sender whose first chunk is shorter than
// wordsPerPair has already sent its whole stream; any other stream is
// bounded by the agreed maximum. All streams are carved from one backing
// array sized by those bounds; the sizes are capacity hints only, and
// later rounds receive through Endpoint.Senders.
func AllToAll(nd clique.Endpoint, queue [][]uint64) [][]uint64 {
	n := nd.N()
	me := nd.ID()
	local := 0
	for t, q := range queue {
		if t == me && len(q) > 0 {
			nd.Fail("comm: AllToAll queued %d words to itself", len(q))
		}
		if len(q) > local {
			local = len(q)
		}
	}
	total := 0
	for _, q := range queue {
		total += len(q)
	}
	defer trace.Op(nd, "AllToAll", total)()
	max := int(MaxWord(nd, uint64(local)))

	in := make([][]uint64, n)
	wpp := nd.WordsPerPair()
	senders := make([]int, 0, n)
	for off := 0; off < max; off += wpp {
		for t := 0; t < n; t++ {
			if t == me || off >= len(queue[t]) {
				continue
			}
			nd.SendWords(t, queue[t][off:chunkEnd(off, len(queue[t]), wpp)])
		}
		nd.Tick()
		senders = nd.Senders(senders[:0])
		if off == 0 {
			carveStreams(nd, senders, wpp, max, in)
		}
		for _, p := range senders {
			in[p] = nd.RecvInto(p, in[p])
		}
	}
	return in
}

// carveStreams gives every first-round sender p an empty stream in[p]
// carved from one backing array: room for its first chunk alone when
// that chunk is shorter than wpp (the stream is complete), else for the
// agreed maximum stream length max.
func carveStreams(nd clique.Endpoint, senders []int, wpp, max int, in [][]uint64) {
	size := func(p int) int {
		if k := len(nd.Recv(p)); k < wpp {
			return k
		}
		return max
	}
	total := 0
	for _, p := range senders {
		total += size(p)
	}
	backing := make([]uint64, total)
	for _, p := range senders {
		k := size(p)
		in[p] = backing[:0:k]
		backing = backing[k:]
	}
}

// BroadcastBits has every node broadcast an arbitrary bit vector (all
// nodes must pass the same length); it returns the table indexed by
// sender. Bits are packed clique.WordBits(n) per word — the honest
// O(log n)-bit packing — so broadcasting b bits takes
// ceil(b / WordBits(n) / wordsPerPair) rounds. Broadcasting the full
// input graph this way (b = n) realises the trivial O(n / log n)
// upper bound that every problem has in the model.
func BroadcastBits(nd clique.Endpoint, bits []bool) [][]bool {
	defer trace.Op(nd, "BroadcastBits", (len(bits)+clique.WordBits(nd.N())-1)/clique.WordBits(nd.N()))()
	n := nd.N()
	wb := clique.WordBits(n)
	nwords := (len(bits) + wb - 1) / wb
	words := make([]uint64, nwords)
	for i, b := range bits {
		if b {
			words[i/wb] |= 1 << (i % wb)
		}
	}
	table := BroadcastAll(nd, words, nwords)
	out := make([][]bool, n)
	for p := 0; p < n; p++ {
		row := make([]bool, len(bits))
		for i := range row {
			row[i] = table[p][i/wb]&(1<<(i%wb)) != 0
		}
		out[p] = row
	}
	return out
}
