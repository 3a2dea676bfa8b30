package comm

import (
	"repro/internal/bitvec"
	"repro/internal/clique"
	"repro/internal/trace"
)

// Packed collectives: the boolean data plane's wire layer. Where the
// scalar collectives move one matrix entry per word, these ship dense
// bit rows at 64 entries per word — ceil(bits/64) words per row instead
// of `bits` — chunked against WordsPerPair exactly like the scalar
// forms, so a packed broadcast of an n-bit row costs
// ceil(ceil(n/64) / wordsPerPair) rounds. A packed word deliberately
// carries 64 bits rather than the model's O(log n); the constant moves
// between bandwidth and round count (the paper's normalisation
// freedom), and the model-honest packing remains available as
// BroadcastBits. Rows are bitvec.Row values, which are layout-
// compatible with the []uint64 payloads the engine moves, so packing
// never re-encodes on either side of the wire.

// BroadcastBitRows has every node broadcast one packed row of `bits`
// bits (exactly bitvec.Words(bits) words); it returns, at every node,
// the table of rows indexed by sender (the own entry is a copy).
// Rounds: ceil(bitvec.Words(bits) / wordsPerPair).
func BroadcastBitRows(nd clique.Endpoint, row bitvec.Row, bits int) []bitvec.Row {
	return BroadcastBitRowsInto(nd, row, bits, nil)
}

// BroadcastBitRowsInto is BroadcastBitRows appending into a caller-
// provided table of n zero-length rows (each with capacity for the full
// row, e.g. carved out of one pooled buffer), so steady-state callers
// receive the whole table without allocating. A nil table allocates.
func BroadcastBitRowsInto(nd clique.Endpoint, row bitvec.Row, bits int, into []bitvec.Row) []bitvec.Row {
	defer trace.Op(nd, "BroadcastBitRows", bitvec.Words(bits))()
	n := nd.N()
	me := nd.ID()
	k := bitvec.Words(bits)
	if len(row) != k {
		nd.Fail("comm: BroadcastBitRows row has %d words, contract is exactly %d for %d bits", len(row), k, bits)
	}
	if into == nil {
		into = make([]bitvec.Row, n)
	} else if len(into) != n {
		nd.Fail("comm: BroadcastBitRowsInto table has %d entries, want n=%d", len(into), n)
	}
	into[me] = append(into[me], row...)
	wpp := nd.WordsPerPair()
	for off := 0; off < k; off += wpp {
		end := chunkEnd(off, k, wpp)
		nd.BroadcastWords(row[off:end])
		nd.Tick()
		// A round whose shared table the engine kept appends each
		// sender's chunk from it; any other reads each peer.
		if t := broadcastTable(nd, end-off); t != nil {
			for p, c := 0, end-off; p < n; p++ {
				if p != me {
					into[p] = append(into[p], t[p*c:(p+1)*c]...)
				}
			}
			continue
		}
		for p := 0; p < n; p++ {
			if p != me {
				into[p] = bitvec.Row(nd.RecvInto(p, into[p]))
			}
		}
	}
	for p := 0; p < n; p++ {
		if len(into[p]) != k {
			nd.Fail("comm: BroadcastBitRows received %d words from %d, want %d", len(into[p]), p, k)
		}
	}
	return into
}

// AllToAllFixed is the fixed-width personalised exchange: out[v] is
// the exactly-k-word payload this node owes node v (a packed row, say),
// every link carries the same k words, and the own entry comes
// back as a copy. Because the width is globally agreed there is no
// max-reduction round (contrast AllToAll): exactly
// ceil(k / wordsPerPair) rounds on the zero-copy send path. This is
// the workhorse of the packed 3D matrix multiplication, whose block
// exchanges are perfectly balanced.
func AllToAllFixed(nd clique.Endpoint, out [][]uint64, k int) [][]uint64 {
	defer trace.Op(nd, "AllToAllFixed", k*(nd.N()-1))()
	n := nd.N()
	me := nd.ID()
	if len(out) != n {
		nd.Fail("comm: AllToAllFixed given %d payloads, want one per node (n=%d)", len(out), n)
	}
	for v, r := range out {
		if len(r) != k {
			nd.Fail("comm: AllToAllFixed payload for %d has %d words, contract is exactly k=%d", v, len(r), k)
		}
	}
	in := make([][]uint64, n)
	in[me] = append([]uint64(nil), out[me]...)
	wpp := nd.WordsPerPair()
	for off := 0; off < k; off += wpp {
		end := chunkEnd(off, k, wpp)
		for v := 0; v < n; v++ {
			if v != me {
				copy(nd.SendBuf(v, end-off), out[v][off:end])
			}
		}
		nd.Tick()
		for p := 0; p < n; p++ {
			if p != me {
				in[p] = nd.RecvInto(p, in[p])
			}
		}
	}
	for p := 0; p < n; p++ {
		if len(in[p]) != k {
			nd.Fail("comm: AllToAllFixed received %d words from %d, want %d", len(in[p]), p, k)
		}
	}
	return in
}
