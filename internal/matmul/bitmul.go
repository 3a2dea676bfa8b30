package matmul

import (
	"repro/internal/bitvec"
	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/trace"
)

// The packed boolean plane: MulNaive and Mul3D dispatch here when the
// semiring is Boolean, representing rows as bitvec.Row (64 entries per
// word) and moving them over the packed collectives. The wire cost
// drops from n words per row to ceil(n/64), and the local inner loops
// become word-parallel ORs instead of per-entry semiring calls. The
// unpacked code paths remain the implementation for every other
// semiring — and, via any non-Boolean semiring with boolean semantics,
// the reference the equivalence tests compare against.

// MulNaiveBits is the packed form of MulNaive over the Boolean
// semiring: every node broadcasts its packed B row, all nodes multiply
// locally with the word-parallel kernel.
// Rounds: ceil(ceil(n/64) / wordsPerPair).
func MulNaiveBits(nd clique.Endpoint, aRow, bRow bitvec.Row) bitvec.Row {
	n := nd.N()
	me := nd.ID()
	w := bitvec.Words(n)
	if len(aRow) != w || len(bRow) != w {
		nd.Fail("matmul: packed rows have %d, %d words; want %d", len(aRow), len(bRow), w)
	}
	out := bitvec.NewRow(n)

	if w <= nd.WordsPerPair() {
		// Single-round fast path: every packed row fits one chunk, so
		// the product reads straight out of the engine's receive views —
		// no table materialisation, no copies, no scratch. The views are
		// consumed before the next Tick, as the engine requires.
		nd.BroadcastWords(bRow)
		nd.Tick()
		aRow.Each(func(k int) {
			if k == me {
				out.Or(bRow)
				return
			}
			got := bitvec.Row(nd.Recv(k))
			if len(got) != w {
				nd.Fail("matmul: packed row from %d has %d words, want %d", k, len(got), w)
			}
			out.Or(got)
		})
		return out
	}

	// Chunked path: the broadcast table lives in one pooled buffer
	// (n rows of w words), received in place through the appending
	// collective.
	buf := bitvec.GetWords(n * w)
	table := make([]bitvec.Row, n)
	for i := range table {
		table[i] = bitvec.Row(buf[i*w : i*w : (i+1)*w])
	}
	table = comm.BroadcastBitRowsInto(nd, bRow, n, table)
	aRow.Each(func(k int) { out.Or(table[k]) })
	bitvec.PutWords(buf)
	return out
}

// Mul3DBits is the packed form of Mul3D over the Boolean semiring: the
// same 3D decomposition of Censor-Hillel et al. [10] — node (i, j, k)
// of the q^3 cube multiplies blocks A[P_i][P_k] x B[P_k][P_j], the
// k-dimension is OR-reduced, results return to their row owners — but
// every exchange ships bit-packed row segments over fixed-width
// personalised collectives instead of one word per entry. Each
// of the three phases is perfectly balanced (at most one A and one B
// segment per ordered pair in phase 1, one block-row chunk in phase 2,
// one result segment in phase 3), so comm.AllToAllFixed applies and
// the whole product costs
//
//	ceil(2 ws / wpp) + ceil(chunk ws / wpp) + ceil(ws / wpp)
//
// rounds, where ws = ceil(seg/64) words per segment — O(n^{1/3}/64)
// against the unpacked schedule's O(n^{1/3}) entries.
func Mul3DBits(nd clique.Endpoint, aRow, bRow bitvec.Row) bitvec.Row {
	n := nd.N()
	me := nd.ID()
	w := bitvec.Words(n)
	if len(aRow) != w || len(bRow) != w {
		nd.Fail("matmul: packed rows have %d, %d words; want %d", len(aRow), len(bRow), w)
	}
	q := cube(n)
	p := newPart(n, q)
	seg := p.size
	ws := bitvec.Words(seg)
	myPart := p.of(me)

	isWorker := me < q*q*q
	var ti, tj, tk int
	if isWorker {
		ti, tj, tk = tripleOf(me, q)
	}

	// Phase 1: segment distribution. A[me][P_t] goes to nodes
	// (part(me), x, t) for all x; B[me][P_t] goes to (x, t, part(me)).
	// Each ordered pair carries at most one A and one B segment, so the
	// per-link payload is a fixed [A segment | B segment] record.
	endPhase := trace.Phase(nd, "mul3d/distribute")
	sendBuf := bitvec.GetWords(n * 2 * ws)
	queues := make([][]uint64, n)
	for v := range queues {
		queues[v] = sendBuf[v*2*ws : (v+1)*2*ws]
	}
	segScratch := bitvec.GetRow(seg)
	for t := 0; t < q; t++ {
		lo, hi := p.bounds(t)
		aRow.ExtractInto(segScratch, lo, hi)
		for x := 0; x < q; x++ {
			copy(queues[idOf(myPart, x, t, q)][:ws], segScratch)
		}
		bRow.ExtractInto(segScratch, lo, hi)
		for x := 0; x < q; x++ {
			copy(queues[idOf(x, t, myPart, q)][ws:], segScratch)
		}
	}
	in := comm.AllToAllFixed(nd, queues, 2*ws)
	bitvec.PutRow(segScratch)
	bitvec.PutWords(sendBuf)
	endPhase()

	// Assemble blocks and multiply locally, word-parallel. aBlk holds
	// rows P_i over columns P_k; bBlk holds rows P_k over columns P_j.
	chunk := (seg + q - 1) / q
	var partial *bitvec.Matrix
	if isWorker {
		aBlk := bitvec.GetMatrix(seg, seg)
		bBlk := bitvec.GetMatrix(seg, seg)
		iLo, _ := p.bounds(ti)
		kLo, _ := p.bounds(tk)
		for src := 0; src < n; src++ {
			st := p.of(src)
			if st == ti {
				copy(aBlk.Row(src-iLo), in[src][:ws])
			}
			if st == tk {
				copy(bBlk.Row(src-kLo), in[src][ws:])
			}
		}
		partial = bitvec.GetMatrix(seg, seg)
		bitvec.MulInto(aBlk, bBlk, partial)
		bitvec.PutMatrix(bBlk)
		bitvec.PutMatrix(aBlk)
	}

	endPhase = trace.Phase(nd, "mul3d/reduce")
	// Phase 2: OR-reduce over the k dimension. Within the (i, j, *)
	// fibre, block-row chunk c is combined at node (i, j, c); every
	// fibre link carries exactly chunk rows (zero-padded at the tail).
	redBuf := bitvec.GetWords(n * chunk * ws)
	queues = make([][]uint64, n)
	for v := range queues {
		queues[v] = redBuf[v*chunk*ws : (v+1)*chunk*ws]
	}
	if isWorker {
		for c := 0; c < q; c++ {
			dst := queues[idOf(ti, tj, c, q)]
			for r := 0; r < chunk; r++ {
				if lr := c*chunk + r; lr < seg {
					copy(dst[r*ws:(r+1)*ws], partial.Row(lr))
				}
			}
		}
		bitvec.PutMatrix(partial)
	}
	redIn := comm.AllToAllFixed(nd, queues, chunk*ws)
	bitvec.PutWords(redBuf)

	var sum *bitvec.Matrix
	if isWorker {
		sum = bitvec.GetMatrix(chunk, seg)
		for src := 0; src < q*q*q && src < n; src++ {
			si, sj, _ := tripleOf(src, q)
			if si != ti || sj != tj {
				continue
			}
			stream := redIn[src]
			for r := 0; r < chunk; r++ {
				sum.Row(r).Or(bitvec.Row(stream[r*ws : (r+1)*ws]))
			}
		}
	}

	endPhase()

	// Phase 3: result segments to row owners. Node (i, j, k) exclusively
	// holds C rows iLo + k*chunk + r over columns P_j; each goes to its
	// global row owner as one ws-word segment.
	endPhase = trace.Phase(nd, "mul3d/return")
	outBuf := bitvec.GetWords(n * ws)
	queues = make([][]uint64, n)
	for v := range queues {
		queues[v] = outBuf[v*ws : (v+1)*ws]
	}
	if isWorker {
		iLo, _ := p.bounds(ti)
		for r := 0; r < chunk; r++ {
			lr := tk*chunk + r
			if g := iLo + lr; lr < seg && g < n {
				copy(queues[g], sum.Row(r))
			}
		}
		bitvec.PutMatrix(sum)
	}
	outIn := comm.AllToAllFixed(nd, queues, ws)
	bitvec.PutWords(outBuf)
	endPhase()

	// Reassemble my row: exactly one worker (part(me), j, k) covers each
	// column block P_j of row me.
	out := bitvec.NewRow(n)
	myLo, _ := p.bounds(myPart)
	lr := me - myLo
	for src := 0; src < q*q*q && src < n; src++ {
		si, sj, sk := tripleOf(src, q)
		if si != myPart || lr < sk*chunk || lr >= (sk+1)*chunk {
			continue
		}
		jLo, jHi := p.bounds(sj)
		out.OrRange(jLo, bitvec.Row(outIn[src]), jHi-jLo)
	}
	return out
}

// boolRows bridges an unpacked Boolean-semiring call onto the packed
// plane and back: nonzero entries pack to set bits, and the packed
// product unpacks to the exact 0/1 rows the unpacked path produces.
func boolRows(nd clique.Endpoint, aRow, bRow []int64,
	mul func(clique.Endpoint, bitvec.Row, bitvec.Row) bitvec.Row) []int64 {
	n := nd.N()
	if len(aRow) != n || len(bRow) != n {
		nd.Fail("matmul: rows have lengths %d, %d; want %d", len(aRow), len(bRow), n)
	}
	return mul(nd, bitvec.FromInt64s(aRow), bitvec.FromInt64s(bRow)).ToInt64s(n)
}
