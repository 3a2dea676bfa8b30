package matmul

import (
	"sync"
	"weak"

	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/trace"
)

// The distributed layout throughout this package is row-major: node i
// holds row i of each matrix, matching the congested clique input
// convention where node i knows its incident edges (= row i of the
// adjacency matrix).

// MulNaive computes row nd.ID() of C = A (x) B where this node holds
// aRow = A[id] and bRow = B[id]. Every node broadcasts its B row, so all
// nodes learn B and multiply locally: Theta(n / wordsPerPair) rounds.
// This is the delta = 1 baseline of Figure 1. Over the Boolean
// semiring the rows travel bit-packed (MulNaiveBits), cutting the wire
// cost to ceil(n/64) words per row; the output is bit-identical.
func MulNaive(nd clique.Endpoint, s Semiring, aRow, bRow []int64) []int64 {
	if _, boolean := s.(Boolean); boolean {
		return boolRows(nd, aRow, bRow, MulNaiveBits)
	}
	n := nd.N()
	if len(aRow) != n || len(bRow) != n {
		nd.Fail("matmul: rows have lengths %d, %d; want %d", len(aRow), len(bRow), n)
	}
	words := make([]uint64, n)
	for j, x := range bRow {
		words[j] = uint64(x)
	}
	table := comm.BroadcastAll(nd, words, n)

	out := make([]int64, n)
	for j := range out {
		out[j] = s.Zero()
	}
	for k := 0; k < n; k++ {
		aik := aRow[k]
		bk := table[k*n : (k+1)*n]
		for j := 0; j < n; j++ {
			out[j] = s.Add(out[j], s.Mul(aik, int64(bk[j])))
		}
	}
	return out
}

// cube returns the largest q with q^3 <= n.
func cube(n int) int {
	q := 1
	for (q+1)*(q+1)*(q+1) <= n {
		q++
	}
	return q
}

// part describes the split of 0..n-1 into q nearly-equal intervals.
type part struct {
	n, q, size int
}

func newPart(n, q int) part { return part{n: n, q: q, size: (n + q - 1) / q} }

// of returns which interval index i belongs to.
func (p part) of(i int) int { return i / p.size }

// lo, hi and sz are the first index, the end and the size of
// interval t.
func (p part) lo(t int) int { lo, _ := p.bounds(t); return lo }
func (p part) hi(t int) int { _, hi := p.bounds(t); return hi }
func (p part) sz(t int) int { lo, hi := p.bounds(t); return hi - lo }

// bounds returns the half-open range of interval t, clipped to n.
func (p part) bounds(t int) (lo, hi int) {
	lo = t * p.size
	hi = lo + p.size
	if lo > p.n {
		lo = p.n
	}
	if hi > p.n {
		hi = p.n
	}
	return lo, hi
}

// tripleOf maps a node id < q^3 to its (i, j, k) coordinates.
func tripleOf(id, q int) (i, j, k int) {
	return id / (q * q), (id / q) % q, id % q
}

// idOf inverts tripleOf.
func idOf(i, j, k, q int) int { return i*q*q + j*q + k }

// Mul3D computes row nd.ID() of C = A (x) B using the 3D decomposition
// of Censor-Hillel et al. [10]: node (i, j, k) of a q x q x q cube
// (q = floor(n^{1/3})) multiplies blocks A[P_i][P_k] * B[P_k][P_j]
// locally, the k-dimension is reduced by semiring addition, and results
// return to their row owners. Each of the three phases is a fixed
// function of n, so every entry, the semiring zero included, moves as
// one word at a position both ends derive, over comm.TwoHop: word y of
// the stream from s to t goes through node (P_t(s) + Q_s(t) + y) mod n,
// where P_t(s) counts the words t receives from senders below s and
// Q_s(t) the words s sends to destinations below t. The Valiant-style
// spread keeps every link's load near the O(n^{1/3}) average that the
// original algorithm reaches through Lenzen routing, so a product takes
// O(n^{1/3}) rounds: exactly the sum of the three plans' Rounds, a
// function of n and the per-pair budget alone (at 8 words per pair, 6
// at n = 27 and 64, 8 from n = 125 to 343). This realises delta <= 1/3
// for semiring matrix multiplication in Figure 1.
//
// Over the Boolean semiring the schedule dispatches to Mul3DBits, the
// bit-packed variant whose block exchanges ship 64 entries per word
// over fixed-width collectives; the output is bit-identical.
func Mul3D(nd clique.Endpoint, s Semiring, aRow, bRow []int64) []int64 {
	if _, boolean := s.(Boolean); boolean {
		return boolRows(nd, aRow, bRow, Mul3DBits)
	}
	n := nd.N()
	me := nd.ID()
	if len(aRow) != n || len(bRow) != n {
		nd.Fail("matmul: rows have lengths %d, %d; want %d", len(aRow), len(bRow), n)
	}
	c := newGeometry(n)
	q, p := c.q, c.p
	plans := plansFor(n)

	// Phase 1: distribute input entries. A[me][P_k] goes to every
	// (part(me), x, k) and B[me][P_j] to every (x, j, part(me)); node
	// (i, j, i) gets both, A first.
	endPhase := trace.Phase(nd, "mul3d/distribute")
	a := p.of(me)
	out := make([]int64, 0, 2*q*n)
	for i := range q {
		for j := range q {
			for k := range q {
				if i == a {
					out = append(out, aRow[p.lo(k):p.hi(k)]...)
				}
				if k == a {
					out = append(out, bRow[p.lo(j):p.hi(j)]...)
				}
			}
		}
	}
	in := comm.TwoHop(nd, plans.distribute, out)
	endPhase()

	// Step 2: node (i, j, k) multiplies A[P_i][P_k] by B[P_k][P_j]. Its
	// input holds one stream per sender of P_i and of P_k, in sender
	// order; a row of P_i carries its A segment, a row of P_k its B
	// segment, and a row of both (i = k) carries the two in turn.
	isWorker := me < q*q*q
	var ti, tj, tk int
	var partial []int64
	if isWorker {
		ti, tj, tk = tripleOf(me, q)
		si, sj, sk := p.sz(ti), p.sz(tj), p.sz(tk)
		aOff, aStride, bOff, bStride := 0, sk, si*sk, sj
		switch {
		case ti == tk:
			aStride, bOff, bStride = sk+sj, sk, sk+sj
		case ti > tk:
			aOff, bOff = sk*sj, 0
		}
		partial = make([]int64, 0, si*sj)
		for _, row := range MulLocal(s, blockRows(in, aOff, aStride, si, sk), blockRows(in, bOff, bStride, sk, sj)) {
			partial = append(partial, row...)
		}
	}

	// Phase 3: reduce over k. Within the (i, j, *) fibre the block rows
	// are split into q chunks of c.chunk rows; chunk x is summed at node
	// (i, j, x), which receives it from all q fibre nodes, its own
	// included, in k order.
	endPhase = trace.Phase(nd, "mul3d/reduce")
	red := comm.TwoHop(nd, plans.reduce, partial)
	var sum []int64
	if isWorker {
		w := c.rows(ti, tk) * p.sz(tj)
		sum = red[:w]
		for k := 1; k < q; k++ {
			for x, v := range red[k*w : (k+1)*w] {
				sum[x] = s.Add(sum[x], v)
			}
		}
	}
	endPhase()

	// Phase 4: node (i, j, k) exclusively holds C rows
	// lo(i) + k*chunk + r over columns P_j; each goes to its row owner,
	// whose input is then its whole row in column order.
	endPhase = trace.Phase(nd, "mul3d/return")
	row := comm.TwoHop(nd, plans.ret, sum)
	endPhase()
	return row
}

// geometry is the 3D decomposition at n nodes: q = floor(n^{1/3}), the
// split p of 0..n-1 into q intervals of up to seg rows, and the
// reduction's chunk of ceil(seg / q) block rows.
type geometry struct {
	q, chunk int
	p        part
}

func newGeometry(n int) geometry {
	q := cube(n)
	p := newPart(n, q)
	return geometry{q: q, chunk: (p.size + q - 1) / q, p: p}
}

// rows is the number of real rows of block i's chunk x.
func (c geometry) rows(i, x int) int {
	return max(0, min(c.chunk, c.p.sz(i)-x*c.chunk))
}

// mul3dPlans is the traffic of Mul3D's three phases at one n.
type mul3dPlans struct {
	distribute, reduce, ret *comm.Plan
}

// sharedPlans holds Mul3D's plans by size, weakly: a size's plans are
// built once and shared by every node of every run and backend that
// uses them while any of those holds them, and the garbage collector
// frees them once none does, leaving only the size's map entry. A plan
// depends on n alone and costs O(n²) time to build, so building it at
// each node, as the goroutine backend would under clique.Replicated,
// costs O(n³) per product.
var sharedPlans struct {
	sync.Mutex
	of map[int]weak.Pointer[mul3dPlans]
}

// plansFor returns Mul3D's plans at n, shared or built.
func plansFor(n int) *mul3dPlans {
	sharedPlans.Lock()
	defer sharedPlans.Unlock()
	if pl := sharedPlans.of[n].Value(); pl != nil {
		return pl
	}
	pl := newMul3DPlans(n)
	if sharedPlans.of == nil {
		sharedPlans.of = make(map[int]weak.Pointer[mul3dPlans])
	}
	sharedPlans.of[n] = weak.Make(pl)
	return pl
}

// newMul3DPlans builds Mul3D's plans at n.
func newMul3DPlans(n int) *mul3dPlans {
	c := newGeometry(n)
	return &mul3dPlans{
		distribute: comm.NewPlan(n, c.distributeRuns),
		reduce:     comm.NewPlan(n, c.reduceRuns),
		ret:        comm.NewPlan(n, c.returnRuns),
	}
}

// The runs of each phase, in sender order. A run's Shift is Q_s(t), the
// words its sender s owes the destinations below t, which is the same
// for every sender of the run modulo n.

// distributeRuns: node (i, j, k) receives sz(k) words (A) from each row
// of P_i and sz(j) words (B) from each row of P_k. Modulo n, a sender
// of part a owes the destinations below (i, j, k) lo(j) words when
// i != a, and lo(j) + lo(k) + [k > a] sz(j) when i = a.
func (c geometry) distributeRuns(t int, runs []comm.Run) []comm.Run {
	q, p := c.q, c.p
	if t >= q*q*q {
		return runs
	}
	i, j, k := tripleOf(t, q)
	aRun := comm.Run{From: p.lo(i), Stride: 1, Count: p.sz(i), Len: p.sz(k), Shift: p.lo(j) + p.lo(k)}
	if k > i {
		aRun.Shift += p.sz(j)
	}
	bRun := comm.Run{From: p.lo(k), Stride: 1, Count: p.sz(k), Len: p.sz(j), Shift: p.lo(j)}
	switch {
	case i == k:
		aRun.Len += p.sz(j)
		return append(runs, aRun)
	case i < k:
		return append(runs, aRun, bRun)
	default:
		return append(runs, bRun, aRun)
	}
}

// reduceRuns: node (i, j, x) receives chunk x of the partial block from
// each node (i, j, k); the chunks before x come first in every sender's
// block.
func (c geometry) reduceRuns(t int, runs []comm.Run) []comm.Run {
	q, p := c.q, c.p
	if t >= q*q*q {
		return runs
	}
	i, j, x := tripleOf(t, q)
	return append(runs, comm.Run{From: idOf(i, j, 0, q), Stride: 1, Count: q,
		Len: c.rows(i, x) * p.sz(j), Shift: min(x*c.chunk, p.sz(i)) * p.sz(j)})
}

// returnRuns: row g, row r of chunk x of part i, receives columns P_j
// from node (i, j, x), j ascending; r rows precede it in every sender's
// chunk. Only the last part can be shorter than seg.
func (c geometry) returnRuns(g int, runs []comm.Run) []comm.Run {
	q, p := c.q, c.p
	i := p.of(g)
	x, r := (g-p.lo(i))/c.chunk, (g-p.lo(i))%c.chunk
	return append(runs,
		comm.Run{From: idOf(i, 0, x, q), Stride: q, Count: q - 1, Len: p.size, Shift: r * p.size},
		comm.Run{From: idOf(i, q-1, x, q), Stride: q, Count: 1, Len: p.sz(q - 1), Shift: r * p.sz(q-1)})
}

// blockRows returns the n x cols block whose row r is
// words[off+r*stride:][:cols], as views.
func blockRows(words []int64, off, stride, n, cols int) [][]int64 {
	blk := make([][]int64, n)
	for r := range blk {
		blk[r] = words[off+r*stride:][:cols:cols]
	}
	return blk
}

// MulFunc is the signature shared by MulNaive and Mul3D so callers and
// benchmarks can swap schedules.
type MulFunc func(nd clique.Endpoint, s Semiring, aRow, bRow []int64) []int64
