package matmul

import (
	"repro/internal/clique"
	"repro/internal/comm"
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
		bk := table[k]
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
// return to their row owners. All traffic moves as individual
// O(log n)-bit entries through the routing substrate, exactly as the
// original algorithm invokes Lenzen routing; per-node send and receive
// volumes are O(n^{4/3}) words, giving O(n^{1/3}) rounds. This realises
// delta <= 1/3 for semiring matrix multiplication in Figure 1.
//
// Entries equal to the semiring zero are not transmitted (receivers
// default to zero), so sparse instances cost proportionally less — the
// asymptotic worst case is unchanged.
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
	q := cube(n)
	p := newPart(n, q)
	seg := p.size
	zero := s.Zero()
	const seedBase = 0x3d3d
	un := uint64(n)

	// Step 1: distribute input entries. Entry A[r][c] goes to nodes
	// (part(r), x, part(c)) for all x; entry B[r][c] goes to
	// (x, part(c), part(r)) for all x. Record: [dst, tag*n^2 + r*n + c,
	// value] where tag 0 marks A, 1 marks B.
	nz := 0
	for c := 0; c < n; c++ {
		if aRow[c] != zero {
			nz++
		}
		if bRow[c] != zero {
			nz++
		}
	}
	recs := make([]uint64, 0, nz*q*3)
	myPart := p.of(me)
	for c := 0; c < n; c++ {
		cp := p.of(c)
		if aRow[c] != zero {
			key := uint64(me)*un + uint64(c)
			for x := 0; x < q; x++ {
				recs = append(recs, uint64(idOf(myPart, x, cp, q)), key, uint64(aRow[c]))
			}
		}
		if bRow[c] != zero {
			key := un*un + uint64(me)*un + uint64(c)
			for x := 0; x < q; x++ {
				recs = append(recs, uint64(idOf(x, cp, myPart, q)), key, uint64(bRow[c]))
			}
		}
	}
	in := comm.Route(nd, recs, 2, seedBase)

	// Step 2: assemble local blocks and multiply. Node (i, j, k) holds
	// aBlk = A[P_i][P_k] and bBlk = B[P_k][P_j], both padded to
	// seg x seg with zeros (which annihilate). Delivered records are
	// [src, key, value].
	var partial [][]int64
	isWorker := me < q*q*q
	var ti, tj, tk int
	if isWorker {
		ti, tj, tk = tripleOf(me, q)
		aBlk := zeroBlock(s, seg, seg)
		bBlk := zeroBlock(s, seg, seg)
		iLo, _ := p.bounds(ti)
		jLo, _ := p.bounds(tj)
		kLo, _ := p.bounds(tk)
		for off := 0; off < len(in); off += 3 {
			key := in[off+1]
			val := int64(in[off+2])
			tag := key / (un * un)
			r := int(key / un % un)
			c := int(key % un)
			if tag == 0 {
				aBlk[r-iLo][c-kLo] = val
			} else {
				bBlk[r-kLo][c-jLo] = val
			}
		}
		partial = MulLocal(s, aBlk, bBlk)
	}

	// Step 3: reduce over k. Within the (i, j, *) fibre the block rows
	// are split into q chunks; chunk c is summed at node (i, j, c).
	// Record: [dst, localRow*seg + col, value].
	chunk := (seg + q - 1) / q
	var redRecs []uint64
	if isWorker {
		// eachRemote visits the nonzero partial entries of every chunk
		// but my own, which is summed locally below.
		eachRemote := func(f func(dst, lr, col int)) {
			for c := 0; c < q; c++ {
				dst := idOf(ti, tj, c, q)
				if dst == me {
					continue
				}
				for lr := c * chunk; lr < (c+1)*chunk && lr < seg; lr++ {
					for col, v := range partial[lr] {
						if v != zero {
							f(dst, lr, col)
						}
					}
				}
			}
		}
		nz := 0
		eachRemote(func(int, int, int) { nz++ })
		redRecs = make([]uint64, 0, nz*3)
		eachRemote(func(dst, lr, col int) {
			redRecs = append(redRecs, uint64(dst), uint64(lr*seg+col), uint64(partial[lr][col]))
		})
	}
	redIn := comm.Route(nd, redRecs, 2, seedBase+1)

	// Sum my chunk: block rows [tk*chunk, (tk+1)*chunk).
	var sum [][]int64
	if isWorker {
		sum = zeroBlock(s, chunk, seg)
		for lr := tk * chunk; lr < (tk+1)*chunk && lr < seg; lr++ {
			copy(sum[lr-tk*chunk], partial[lr])
		}
		for off := 0; off < len(redIn); off += 3 {
			lr := int(redIn[off+1]) / seg
			col := int(redIn[off+1]) % seg
			r := lr - tk*chunk
			if r < 0 || r >= chunk {
				nd.Fail("matmul: reduction row %d outside chunk %d", lr, tk)
			}
			sum[r][col] = s.Add(sum[r][col], int64(redIn[off+2]))
		}
	}

	// Step 4: ship result entries to row owners. After the reduction,
	// node (i, j, k) exclusively holds C entries for global rows
	// iLo + k*chunk .. and columns P_j. Record: [dst, col, value].
	var outRecs []uint64
	if isWorker {
		iLo, _ := p.bounds(ti)
		jLo, jHi := p.bounds(tj)
		rows := min(chunk, seg-tk*chunk, n-iLo-tk*chunk)
		nz := 0
		for r := 0; r < rows; r++ {
			for _, v := range sum[r][:jHi-jLo] {
				if v != zero {
					nz++
				}
			}
		}
		outRecs = make([]uint64, 0, nz*3)
		for r := 0; r < rows; r++ {
			global := iLo + tk*chunk + r
			for col := jLo; col < jHi; col++ {
				if v := sum[r][col-jLo]; v != zero {
					outRecs = append(outRecs, uint64(global), uint64(col), uint64(v))
				}
			}
		}
	}
	outIn := comm.Route(nd, outRecs, 2, seedBase+2)

	out := make([]int64, n)
	for j := range out {
		out[j] = zero
	}
	for off := 0; off < len(outIn); off += 3 {
		out[outIn[off+1]] = int64(outIn[off+2])
	}
	return out
}

// zeroBlock returns a rows x cols block filled with the semiring zero,
// its cap-limited rows carved from one backing array.
func zeroBlock(s Semiring, rows, cols int) [][]int64 {
	backing := make([]int64, rows*cols)
	if zero := s.Zero(); zero != 0 {
		for i := range backing {
			backing[i] = zero
		}
	}
	blk := make([][]int64, rows)
	for i := range blk {
		blk[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return blk
}

// MulFunc is the signature shared by MulNaive and Mul3D so callers and
// benchmarks can swap schedules.
type MulFunc func(nd clique.Endpoint, s Semiring, aRow, bRow []int64) []int64
