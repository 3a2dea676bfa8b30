package comm

import (
	"repro/internal/clique"
	"repro/internal/trace"
)

// The sparse collectives: communication whose cost is O(words actually
// sent), not O(n) per round. The dense vocabulary above always pays
// the full table — every BroadcastAll costs n·k words per node whether
// or not a node has anything to say. The message-frugal algorithms
// (Pemmaraju–Sardeshmukh o(m)-message MST, sampled-sketch protocols)
// need silence to be free, which the simulator already grants: an
// empty link carries zero words and costs nothing. What the sparse
// collectives add is the agreement structure — fixed round counts all
// nodes can compute locally — so sparsity never buys a divergent
// schedule across backends.

// Msg is one sparse point-to-point payload.
type Msg struct {
	To    int
	Words []uint64
}

// SendToFew delivers every node's sparse message list, costing only
// the words actually sent. All nodes must pass the same rounds value
// (it is the agreement that keeps lockstep and goroutine schedules
// identical), and rounds·wpp must bound every single message's length
// — at most one message per destination per call. Returns the
// received words indexed by sender; nil entries are silence. The
// receiver sees each message exactly as sent (chunking across rounds
// is reassembled).
func SendToFew(nd clique.Endpoint, msgs []Msg, rounds int) [][]uint64 {
	total := 0
	for _, m := range msgs {
		total += len(m.Words)
	}
	defer trace.Op(nd, "SendToFew", total)()
	n := nd.N()
	me := nd.ID()
	wpp := nd.WordsPerPair()
	if rounds < 1 {
		nd.Fail("comm: SendToFew rounds = %d, need >= 1", rounds)
	}
	var seen []bool // duplicate check; a single message cannot repeat
	if len(msgs) > 1 {
		seen = make([]bool, n)
	}
	for _, m := range msgs {
		if m.To < 0 || m.To >= n || m.To == me {
			nd.Fail("comm: SendToFew message to %d from %d, need another node in 0..%d", m.To, me, n-1)
		}
		if seen != nil {
			if seen[m.To] {
				nd.Fail("comm: SendToFew queued two messages for %d (contract is at most one)", m.To)
			}
			seen[m.To] = true
		}
		if len(m.Words) > rounds*wpp {
			nd.Fail("comm: SendToFew message of %d words to %d exceeds %d rounds x %d wpp",
				len(m.Words), m.To, rounds, wpp)
		}
	}
	in := make([][]uint64, n)
	for r := 0; r < rounds; r++ {
		for _, m := range msgs {
			off := r * wpp
			if off < len(m.Words) {
				nd.SendWords(m.To, m.Words[off:chunkEnd(off, len(m.Words), wpp)])
			}
		}
		nd.Tick()
		for p := 0; p < n; p++ {
			if p != me && len(nd.Recv(p)) > 0 {
				in[p] = nd.RecvInto(p, in[p])
			}
		}
	}
	return in
}

// SampledBroadcast is a broadcast only the sampled nodes pay for:
// nodes with active == true broadcast exactly k words, silent nodes
// send nothing, and every node learns which peers spoke and what they
// said. Takes ceil(k / wpp) rounds regardless of how many nodes are
// active — the fixed schedule is the cross-backend agreement — but
// the word cost is (n-1)·k per active node and zero per silent node.
// Returns the payload table indexed by sender; nil entries were
// silent (own entry filled when active).
func SampledBroadcast(nd clique.Endpoint, words []uint64, k int, active bool) [][]uint64 {
	cost := 0
	if active {
		cost = k
	}
	defer trace.Op(nd, "SampledBroadcast", cost)()
	if k < 1 {
		nd.Fail("comm: SampledBroadcast k = %d, need >= 1", k)
	}
	if active && len(words) != k {
		nd.Fail("comm: SampledBroadcast active with %d words, contract is exactly k=%d", len(words), k)
	}
	n := nd.N()
	me := nd.ID()
	wpp := nd.WordsPerPair()
	in := make([][]uint64, n)
	if active {
		in[me] = append(in[me], words...)
	}
	for off := 0; off < k; off += wpp {
		if active {
			nd.BroadcastWords(words[off:chunkEnd(off, k, wpp)])
		}
		nd.Tick()
		for p := 0; p < n; p++ {
			if p != me && len(nd.Recv(p)) > 0 {
				in[p] = nd.RecvInto(p, in[p])
			}
		}
	}
	for p := 0; p < n; p++ {
		if got := len(in[p]); got != 0 && got != k {
			nd.Fail("comm: SampledBroadcast received %d words from %d, want 0 or k=%d", got, p, k)
		}
	}
	return in
}

// GatherSparse collects at most one k-word payload per node at root,
// costing only the active nodes' words: nodes pass their payload (or
// nil to stay silent), and after ceil(k / wpp) rounds the root holds
// the table indexed by sender (nil entries were silent; the root's
// own payload included). Non-root nodes get a table holding only
// their own entry. The sparse counterpart of Gather, which always
// moves n·k words.
func GatherSparse(nd clique.Endpoint, root int, words []uint64, k int) [][]uint64 {
	defer trace.Op(nd, "GatherSparse", len(words))()
	if k < 1 {
		nd.Fail("comm: GatherSparse k = %d, need >= 1", k)
	}
	n := nd.N()
	me := nd.ID()
	if root < 0 || root >= n {
		nd.Fail("comm: GatherSparse root = %d, need 0..%d", root, n-1)
	}
	if words != nil && len(words) != k {
		nd.Fail("comm: GatherSparse active with %d words, contract is exactly k=%d", len(words), k)
	}
	wpp := nd.WordsPerPair()
	in := make([][]uint64, n)
	if words != nil {
		in[me] = append(in[me], words...)
	}
	for off := 0; off < k; off += wpp {
		if words != nil && me != root {
			nd.SendWords(root, words[off:chunkEnd(off, k, wpp)])
		}
		nd.Tick()
		if me == root {
			for p := 0; p < n; p++ {
				if p != me && len(nd.Recv(p)) > 0 {
					in[p] = nd.RecvInto(p, in[p])
				}
			}
		}
	}
	if me == root {
		for p := 0; p < n; p++ {
			if got := len(in[p]); got != 0 && got != k {
				nd.Fail("comm: GatherSparse received %d words from %d, want 0 or k=%d", got, p, k)
			}
		}
	}
	return in
}
