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

// broadcastTable returns the engine's shared table of the last round
// when every node broadcast exactly k words in it (clique.Node's
// BroadcastTable), nil otherwise. Endpoints other than *clique.Node —
// a virtual clique's nodes — never have one, and the collectives fall
// back to their per-peer Recv loops, which also cover every round a
// peer spoke out of turn in.
func broadcastTable(nd clique.Endpoint, k int) []uint64 {
	if node, ok := nd.(*clique.Node); ok {
		return node.BroadcastTable(k)
	}
	return nil
}

// BroadcastAll has every node contribute exactly k words; it returns,
// at every node, the flat sender-major table of n·k words: sender p's
// words are t[p*k : (p+1)*k], the own entry a copy of the input. Takes
// ceil(k / wordsPerPair) rounds: optimal up to constants, since every
// node must receive (n-1)k words over n-1 links.
func BroadcastAll(nd clique.Endpoint, words []uint64, k int) []uint64 {
	return BroadcastAllInto(nd, words, k, nil)
}

// BroadcastAllInto is BroadcastAll refilling a caller-provided table of
// n·k words (allocated when nil), so protocols that broadcast every
// phase allocate the table once. A round whose shared table the engine
// kept (every node broadcast its chunk and nothing else) fills the
// caller's table with one copy per sender chunk; any other round reads
// each peer with Recv, and a peer whose words do not add up to k fails
// the run after the last round.
func BroadcastAllInto(nd clique.Endpoint, words []uint64, k int, out []uint64) []uint64 {
	defer trace.Op(nd, "BroadcastAll", k)()
	if len(words) != k {
		nd.Fail("comm: BroadcastAll given %d words, contract is exactly k=%d", len(words), k)
	}
	n := nd.N()
	me := nd.ID()
	if out == nil {
		out = make([]uint64, n*k)
	} else if len(out) != n*k {
		nd.Fail("comm: BroadcastAllInto table has %d words, want n*k=%d", len(out), n*k)
	}
	copy(out[me*k:(me+1)*k], words)

	// got[p] counts sender p's words so far; it is made by the first
	// round without a shared table, every earlier round having
	// delivered each sender's full chunk.
	var got []int
	wpp := nd.WordsPerPair()
	for off := 0; off < k; off += wpp {
		end := chunkEnd(off, k, wpp)
		c := end - off
		nd.BroadcastWords(words[off:end])
		nd.Tick()
		if got == nil {
			if t := broadcastTable(nd, c); t != nil {
				if c == k {
					copy(out, t)
					continue
				}
				for p := 0; p < n; p++ {
					copy(out[p*k+off:p*k+end], t[p*c:(p+1)*c])
				}
				continue
			}
			got = make([]int, n)
			for p := range got {
				got[p] = off
			}
		}
		for p := 0; p < n; p++ {
			if p == me {
				continue
			}
			w := nd.Recv(p)
			if got[p] < k {
				copy(out[p*k+got[p]:(p+1)*k], w)
			}
			got[p] += len(w)
		}
	}
	for p, g := range got {
		if p != me && g != k {
			nd.Fail("comm: BroadcastAll received %d words from %d, want %d", g, p, k)
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
// broadcast every round reuse one buffer. A table of the wrong length
// fails the run before the round is spent.
func BroadcastWordInto(nd clique.Endpoint, w uint64, into []uint64) []uint64 {
	defer trace.Op(nd, "BroadcastWord", 1)()
	n := nd.N()
	me := nd.ID()
	if into == nil {
		into = make([]uint64, n)
	} else if len(into) != n {
		nd.Fail("comm: BroadcastWordInto table has %d entries, want n=%d", len(into), n)
	}
	buf := nd.BroadcastBuf(1)
	buf[0] = w
	nd.Tick()
	if t := broadcastTable(nd, 1); t != nil {
		copy(into, t)
		return into
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
	if t := broadcastTable(nd, 1); t != nil {
		copy(words, t)
		for p := range ok {
			ok[p] = true
		}
		return words, ok
	}
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
// the stream this node owes node t (queue[own id] must be empty).
// Returns the stream received from each sender (nil for senders that
// owed nothing), every one exactly sized (cap == len) and carved in
// sender order from one backing array. Rounds: 1 + ceil(maxLinkLoad /
// wordsPerPair), the first being the length round (see allToAll).
func AllToAll(nd clique.Endpoint, queue [][]uint64) [][]uint64 {
	n := nd.N()
	me := nd.ID()
	sizes := make([]int, n)
	for t, q := range queue {
		if t == me && len(q) > 0 {
			nd.Fail("comm: AllToAll queued %d words to itself", len(q))
		}
		sizes[t] = len(q)
	}
	backing, lens := allToAll(nd, sizes, func(t, off int, buf []uint64) {
		copy(buf, queue[t][off:])
	}, 0)
	in := make([][]uint64, n)
	for p, k := range lens {
		if k > 0 {
			in[p] = backing[:k:k]
			backing = backing[k:]
		}
	}
	return in
}

// allToAll is the reserve-and-fill core of AllToAll, Route and
// RouteDirect. sizes[t] is the length of the stream this node owes node
// t (sizes[own id] must be 0), and fill(t, off, buf) writes words
// [off, off+len(buf)) of that stream straight into the mailbox storage
// buf. It returns one exactly sized caller-owned array holding head
// zeroed words, for the caller to fill, followed by the streams
// received, in sender order (nil when that is no words at all), and
// the announced length of each sender's stream.
//
// The first round is the length round: node s sends each peer t the
// single word sizes[t]<<32 | s's longest stream — a pair of poly(n)
// counts, one word per ordered pair, as clique.PairWord packs. Every
// node then knows the global maximum, which fixes the number of data
// rounds, and the exact length of each stream it will receive; a stream
// that arrives longer or shorter than announced fails the run.
func allToAll(nd clique.Endpoint, sizes []int, fill func(t, off int, buf []uint64), head int) ([]uint64, []int) {
	n := nd.N()
	me := nd.ID()
	local, total := 0, 0
	for _, k := range sizes {
		if k >= 1<<32 {
			nd.Fail("comm: AllToAll stream of %d words does not fit the length round", k)
		}
		local = max(local, k)
		total += k
	}
	defer trace.Op(nd, "AllToAll", total)()
	for t := 0; t < n; t++ {
		if t != me {
			nd.SendBuf(t, 1)[0] = uint64(sizes[t])<<32 | uint64(local)
		}
	}
	nd.Tick()
	lens := make([]int, n)
	longest := local
	size := head
	for p := 0; p < n; p++ {
		if p == me {
			continue
		}
		got := nd.Recv(p)
		if len(got) != 1 {
			nd.Fail("comm: AllToAll length round got %d words from %d, want 1", len(got), p)
		}
		lens[p] = int(got[0] >> 32)
		longest = max(longest, int(got[0]&(1<<32-1)))
		size += lens[p]
	}

	var out []uint64
	if size > 0 {
		out = make([]uint64, size)
	}
	// next[p] is where sender p's next chunk lands, end[p] where its
	// announced stream stops.
	next := make([]int, 2*n)
	end := next[n:]
	next = next[:n]
	for p, at := 0, head; p < n; p++ {
		next[p] = at
		at += lens[p]
		end[p] = at
	}
	wpp := nd.WordsPerPair()
	senders := make([]int, 0, n)
	for off := 0; off < longest; off += wpp {
		for t := 0; t < n; t++ {
			if off < sizes[t] {
				fill(t, off, nd.SendBuf(t, chunkEnd(off, sizes[t], wpp)-off))
			}
		}
		nd.Tick()
		senders = nd.Senders(senders[:0])
		for _, p := range senders {
			got := nd.Recv(p)
			if len(got) > end[p]-next[p] {
				nd.Fail("comm: AllToAll stream from %d exceeds the %d words announced", p, lens[p])
			}
			next[p] += copy(out[next[p]:], got)
		}
	}
	for p := 0; p < n; p++ {
		if next[p] != end[p] {
			nd.Fail("comm: AllToAll stream from %d has %d words, %d announced", p, lens[p]-(end[p]-next[p]), lens[p])
		}
	}
	return out, lens
}

// BroadcastBits has every node broadcast an arbitrary bit vector (all
// nodes must pass the same length); it returns BroadcastAll's flat
// table of the words on the wire, w = ceil(len(bits) / WordBits(n))
// words per sender: bit i of sender p's vector is bit i mod
// WordBits(n) of t[p*w + i/WordBits(n)]. Bits are packed
// clique.WordBits(n) per word — the honest O(log n)-bit packing — so
// broadcasting b bits takes ceil(b / WordBits(n) / wordsPerPair)
// rounds. Broadcasting the full input graph this way (b = n) realises
// the trivial O(n / log n) upper bound that every problem has in the
// model. The table is identical at every node, so a caller can key
// replicated local work on it (clique.Replicated).
func BroadcastBits(nd clique.Endpoint, bits []bool) []uint64 {
	defer trace.Op(nd, "BroadcastBits", (len(bits)+clique.WordBits(nd.N())-1)/clique.WordBits(nd.N()))()
	wb := clique.WordBits(nd.N())
	nwords := (len(bits) + wb - 1) / wb
	words := make([]uint64, nwords)
	for i, b := range bits {
		if b {
			words[i/wb] |= 1 << (i % wb)
		}
	}
	return BroadcastAll(nd, words, nwords)
}
