package vcover

import (
	"slices"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/trace"
)

// Result is the outcome, identical at every node: all nodes run the same
// deterministic local solve on the same kernel, so no agreement round is
// needed.
type Result struct {
	// Found reports whether a vertex cover of size at most k exists.
	Found bool
	// Cover is a vertex cover of size at most k if Found, nil
	// otherwise. It is the union of the high-degree kernel vertices and
	// the local optimum on the kernel.
	Cover []int
	// KernelSize is the number of high-degree vertices forced into the
	// cover during preprocessing, reported for the experiments.
	KernelSize int
}

// Find looks for a vertex cover of size at most k. row is this node's
// adjacency bitset.
//
// Rounds: exactly 1 + min(k, pr), where pr = ceil(ceil(n/64) /
// wordsPerPair) is the cost of one bit-packed row broadcast. The main
// phase announces each node's uncovered edges either over the paper's k
// presence-coded one-word rounds or — when strictly cheaper — as one
// packed adjacency-mask broadcast over the packed collective plane;
// both shapes have a fixed round count agreed from (n, k, wordsPerPair)
// alone, so yes- and no-instances stay indistinguishable by cost, and
// the count never exceeds Theorem 11's 1 + k.
func Find(nd clique.Endpoint, row graph.Bitset, k int) Result {
	n := nd.N()
	me := nd.ID()
	if k < 0 {
		nd.Fail("vcover: negative k")
	}

	// Preprocessing round: high-degree vertices announce themselves.
	endPhase := trace.Phase(nd, "vcover/high-degree")
	deg := row.Count()
	inC := comm.Flags(nd, deg > k)
	var forced []int
	for v := 0; v < n; v++ {
		if inC[v] {
			forced = append(forced, v)
		}
	}

	// If more than k vertices are forced, no size-k cover exists; all
	// nodes still run the k broadcast rounds so that the round count is
	// the same on yes- and no-instances (and every node reaches the same
	// conclusion from the same data).
	overfull := len(forced) > k
	endPhase()

	// Main phase: nodes outside C announce their uncovered edges (at
	// most k of them — their degree is <= k). Every node derives the
	// same shape choice from public quantities, so the round count is
	// input-independent either way.
	var mine []int
	if !inC[me] {
		row.Each(func(u int) {
			if !inC[u] {
				mine = append(mine, u)
			}
		})
	}
	if len(mine) > k {
		// Degree <= k outside C, so this cannot happen on a legal run.
		nd.Fail("vcover: %d uncovered edges at a low-degree node", len(mine))
	}
	var kedges [][2]int // the announced kernel edges, duplicates included
	endPhase = trace.Phase(nd, "vcover/kernel-rounds")
	defer endPhase()
	wpp := nd.WordsPerPair()
	packedRounds := (bitvec.Words(n) + wpp - 1) / wpp
	if packedRounds < k {
		// Packed shape: one bit-row broadcast of the uncovered-neighbour
		// mask (nodes in C broadcast the zero mask), fewer rounds than
		// the k one-word rounds whenever n/64 is small against k.
		mask := bitvec.NewRow(n)
		for _, u := range mine {
			mask.Set(u)
		}
		table := comm.BroadcastBitRows(nd, mask, n)
		for v, rowMask := range table {
			rowMask.Each(func(u int) {
				if u != v {
					kedges = append(kedges, [2]int{v, u})
				}
			})
		}
	} else {
		// The paper's shape: one optional word per round for k rounds.
		words := make([]uint64, len(mine))
		for i, u := range mine {
			words[i] = clique.PairWord(me, u, n)
		}
		comm.BroadcastRounds(nd, words, k, func(_, _ int, w uint64) {
			a, b := clique.UnpairWord(w, n)
			kedges = append(kedges, [2]int{a, b})
		})
		for _, u := range mine {
			kedges = append(kedges, [2]int{me, u})
		}
	}

	if overfull {
		return Result{KernelSize: len(forced)}
	}

	// Local solve: minimum vertex cover of the kernel within the
	// remaining budget. Local computation is free in the model. The
	// kernel graph spans only the announced edges' endpoints, relabelled
	// in ascending id — O(k²) vertices on a yes-instance instead of n —
	// and the relabelling is monotone, so FindVertexCover branches on
	// the same edges in the same order.
	verts := make([]int, 0, 2*len(kedges))
	for _, e := range kedges {
		verts = append(verts, e[0], e[1])
	}
	slices.Sort(verts)
	verts = slices.Compact(verts)
	kernel := graph.New(len(verts))
	for _, e := range kedges {
		a, _ := slices.BinarySearch(verts, e[0])
		b, _ := slices.BinarySearch(verts, e[1])
		kernel.AddEdge(a, b)
	}
	rest := graph.FindVertexCover(kernel, k-len(forced))
	if rest == nil {
		return Result{KernelSize: len(forced)}
	}
	for i, v := range rest {
		rest[i] = verts[v]
	}
	cover := append(append([]int(nil), forced...), rest...)
	sort.Ints(cover)
	return Result{Found: true, Cover: cover, KernelSize: len(forced)}
}

// Decide is the decision version: does a vertex cover of size at most k
// exist?
func Decide(nd clique.Endpoint, row graph.Bitset, k int) bool {
	return Find(nd, row, k).Found
}
