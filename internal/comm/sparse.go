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
// need silence to be free, in model words and in simulator time: an
// empty link carries zero words, and receivers walk Endpoint.Senders
// instead of probing every peer, so on the lockstep backend a round
// costs each node O(senders that spoke + n/64). What the sparse
// collectives add is the agreement structure — fixed round counts all
// nodes can compute locally — so sparsity never buys a divergent
// schedule across backends.

// Msg is one sparse point-to-point payload.
type Msg struct {
	To    int
	Words []uint64
}

// Delivery is one message a SendToFew call received: its sender and its
// words, reassembled across the call's rounds.
type Delivery struct {
	From  int
	Words []uint64
}

// SendToFew delivers every node's sparse message list, costing only
// the words actually sent. All nodes must pass the same rounds value
// (it is the agreement that keeps lockstep and goroutine schedules
// identical), and rounds·wpp must bound every single message's length
// — at most one message per destination per call. The messages this
// node received are appended to into in ascending sender order and the
// result is returned; silent peers have no entry. The receiver sees
// each message exactly as sent (chunking across rounds is
// reassembled). Callers that pass the previous result truncated to
// zero length (into[:0]) reuse both the list and its word buffers —
// overwriting the previous result — so a steady-state call allocates
// nothing in proportion to n: a round costs each node O(senders +
// n/64).
func SendToFew(nd clique.Endpoint, msgs []Msg, rounds int, into []Delivery) []Delivery {
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
	// Duplicate check (a single message cannot repeat): one bit per
	// destination, on the stack up to n = 1024.
	var small [16]uint64
	var seen []uint64
	if len(msgs) > 1 {
		if w := (n + 63) / 64; w <= len(small) {
			seen = small[:w]
		} else {
			seen = make([]uint64, w)
		}
	}
	for _, m := range msgs {
		if m.To < 0 || m.To >= n || m.To == me {
			nd.Fail("comm: SendToFew message to %d from %d, need another node in 0..%d", m.To, me, n-1)
		}
		if seen != nil {
			bit := uint64(1) << uint(m.To&63)
			if seen[m.To>>6]&bit != 0 {
				nd.Fail("comm: SendToFew queued two messages for %d (contract is at most one)", m.To)
			}
			seen[m.To>>6] |= bit
		}
		if len(m.Words) > rounds*wpp {
			nd.Fail("comm: SendToFew message of %d words to %d exceeds %d rounds x %d wpp",
				len(m.Words), m.To, rounds, wpp)
		}
	}
	base := len(into)
	var senders []int
	for r := 0; r < rounds; r++ {
		off := r * wpp
		for _, m := range msgs {
			if off < len(m.Words) {
				nd.SendWords(m.To, m.Words[off:chunkEnd(off, len(m.Words), wpp)])
			}
		}
		nd.Tick()
		senders = nd.Senders(senders[:0])
		if r == 0 {
			for _, p := range senders {
				into = appendDelivery(into, p)
				d := &into[len(into)-1]
				d.Words = nd.RecvInto(p, d.Words)
			}
			continue
		}
		// Every message starts in round 0, so later rounds' senders are
		// an ascending subset of the list: merge them in.
		i := base
		for _, p := range senders {
			for into[i].From != p {
				i++
			}
			into[i].Words = nd.RecvInto(p, into[i].Words)
		}
	}
	return into
}

// appendDelivery extends into by one entry from `from`, reusing the
// entry's word buffer when into has spare capacity.
func appendDelivery(into []Delivery, from int) []Delivery {
	if len(into) < cap(into) {
		into = into[:len(into)+1]
		d := &into[len(into)-1]
		d.From, d.Words = from, d.Words[:0]
		return into
	}
	return append(into, Delivery{From: from})
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
	var senders []int
	for off := 0; off < k; off += wpp {
		if active {
			nd.BroadcastWords(words[off:chunkEnd(off, k, wpp)])
		}
		nd.Tick()
		senders = nd.Senders(senders[:0])
		for _, p := range senders {
			in[p] = nd.RecvInto(p, in[p])
		}
	}
	for p := 0; p < n; p++ {
		if got := len(in[p]); got != 0 && got != k {
			nd.Fail("comm: SampledBroadcast received %d words from %d, want 0 or k=%d", got, p, k)
		}
	}
	return in
}
