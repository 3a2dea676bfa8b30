package mst

import (
	"slices"

	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/sketch"
	"repro/internal/trace"
)

// seedPhases is the constant number of fused Borůvka phases SketchFind
// runs before switching to the contracted exchange: after 3 phases at
// most n/8 components remain, which keeps the leader-row broadcast
// within a couple of rounds at sweep sizes.
const seedPhases = 3

// SketchStats is the telemetry SketchFind derives from the leader
// broadcast — identical at every node.
type SketchStats struct {
	// Components is the component count entering the contracted
	// exchange (after the seed phases).
	Components int
	// SampleOK counts leaders whose merged cut sketch produced a
	// verified cut-edge sample; SampleTotal counts leaders with a
	// nonempty cut. SampleOK/SampleTotal is the empirical ℓ₀-sampling
	// success rate the experiment reports.
	SampleOK, SampleTotal int
}

// SketchFind computes the minimum spanning forest in O(1) phases, in
// the style of the sketch-based constant-round MST algorithms
// (Jurdziński–Nowicki, arXiv:1707.08484): a constant number of
// Borůvka seed phases, then AGM cut sketches merged at component
// leaders over sparse links, then one contracted min-edge exchange
// that every node replays locally. wRow is this node's weight row
// (graph.Inf for non-edges); seed seeds the shared sketch hash
// family. Every node returns the identical forest, sorted by
// (W, U, V) — exactly the forest Find and KruskalForest produce,
// because all three use the same total edge order.
//
// Round count: seedPhases·ceil(2/wpp) + ceil(sketchWords/wpp) +
// ceil(2/wpp) + ceil((2k+2)/wpp) with k components after seeding —
// single-digit for connected sweeps up to n = 256 at wpp = 32. The
// cut sketches are advisory (the exchange is exact either way): their
// merge–sample cycle is validated in-protocol and surfaced as
// SketchStats, so the experiment can gate on the recovery rate.
func SketchFind(nd clique.Endpoint, wRow []int64, seed uint64) ([]Edge, SketchStats) {
	n := nd.N()
	me := nd.ID()
	if n == 1 {
		// No edges, and the cut sketches need n >= 2.
		return nil, SketchStats{Components: 1}
	}

	// Phase A: seed contraction. Identical logic to Find's phases, but
	// a fixed constant number of them, with pair and weight fused into
	// one two-word broadcast.
	m := clique.Replicated(nd, "mst/init", nil, nil, func(*boruvkaMerge, []uint64) *boruvkaMerge {
		return newBoruvkaMerge(n)
	})
	announced := make([]uint64, 2*n) // (pair, weight) per node, reused by every seed phase
	for phase := 0; phase < seedPhases; phase++ {
		endPhase := trace.Phase(nd, "sketchmst/seed")
		comp := m.comp
		best := Edge{U: -1, W: graph.Inf}
		for u := 0; u < n; u++ {
			if comp[u] == comp[me] || wRow[u] >= graph.Inf {
				continue
			}
			if cand := (Edge{U: me, V: u, W: wRow[u]}); better(cand, best) {
				best = cand
			}
		}
		pairWord := noEdge
		if best.U >= 0 {
			pairWord = clique.PairWord(best.U, best.V, n)
		}
		comm.BroadcastAllInto(nd, []uint64{pairWord, uint64(best.W)}, 2, announced)
		m = clique.Replicated(nd, "mst/phase", m, announced, (*boruvkaMerge).seedPhase)
		endPhase()
	}

	// Component index after seeding: labels are minimum member ids, so
	// the label doubles as the leader's node id, and the leaders in
	// ascending id are the components in ascending label.
	comp := m.comp
	comps := m.leaders()
	k := len(comps)
	leader := me == comp[me]

	// Phase B: cut sketches. Every node sketches its full incidence
	// list and ships it to its leader over one sparse link; XOR at the
	// leader cancels intra-component edges, leaving the sketch of the
	// component's cut (the AGM mechanism).
	endB := trace.Phase(nd, "sketchmst/sketch")
	sp := sketch.DefaultParams(n, seed^0xa5a5a5a5a5a5a5a5)
	mine := sketch.New(sp)
	for u := 0; u < n; u++ {
		if u != me && wRow[u] < graph.Inf {
			mine.Toggle(me, u)
		}
	}
	sketchRounds := (sp.Words() + nd.WordsPerPair() - 1) / nd.WordsPerPair()
	var up []comm.Msg
	if !leader {
		up = append(up, comm.Msg{To: comp[me], Words: mine.Row})
	}
	rows := comm.SendToFew(nd, up, sketchRounds, nil)
	cut := mine // leaders fold members into their own sketch
	if leader {
		for _, d := range rows {
			cut.MergeRow(d.Words)
		}
	}
	endB()

	// Phase C: exact contracted candidates. Every node sends, to the
	// leader of each foreign component it has an edge into, its
	// minimum such edge — two words over each sparse link.
	endC := trace.Phase(nd, "sketchmst/exchange")
	bestInto := make(map[int]Edge, k)
	for u := 0; u < n; u++ {
		if comp[u] == comp[me] || wRow[u] >= graph.Inf {
			continue
		}
		e := Edge{U: me, V: u, W: wRow[u]}
		if cur, ok := bestInto[comp[u]]; !ok || better(e, cur) {
			bestInto[comp[u]] = e
		}
	}
	var cands []comm.Msg
	for c, e := range bestInto {
		// c is a foreign component's label = its leader's id; it can
		// never be me, because my own component is excluded above.
		cands = append(cands, comm.Msg{To: c, Words: []uint64{clique.PairWord(e.U, e.V, n), uint64(e.W)}})
	}
	candRounds := (2 + nd.WordsPerPair() - 1) / nd.WordsPerPair()
	recv := comm.SendToFew(nd, cands, candRounds, rows[:0])

	// Leaders reduce received candidates per source component into
	// their D-row: slot i holds the minimum edge between component
	// comps[i] and mine. The leader's own outgoing candidates went to
	// the foreign leaders, whose rows cover the same pairs from the
	// other side.
	row := make([]uint64, 2*k+2)
	if leader {
		bestFrom := make(map[int]Edge, k)
		for _, d := range recv {
			u, v := clique.UnpairWord(d.Words[0], n)
			e := Edge{U: u, V: v, W: int64(d.Words[1])}
			src := comp[d.From]
			if cur, ok := bestFrom[src]; !ok || better(e, cur) {
				bestFrom[src] = e
			}
		}
		for i, c := range comps {
			if e, ok := bestFrom[c]; ok {
				row[2*i] = clique.PairWord(e.U, e.V, n)
				row[2*i+1] = uint64(e.W)
			} else {
				row[2*i] = noEdge
			}
		}
		// Telemetry word: validate the sketch sample against the
		// component labels (a true cut edge has exactly one endpoint
		// inside). Bit 0: cut sketch nonempty; bit 1: verified sample.
		var tele uint64
		if !cut.Empty() {
			tele |= 1
			if u, v, ok := cut.Sample(); ok {
				inU, inV := comp[u] == me, comp[v] == me
				if inU != inV {
					tele |= 2
				}
			}
		}
		row[2*k] = tele
		row[2*k+1] = 0
	}

	// Phase D: leaders broadcast their rows; silence is free for the
	// n-k non-leaders.
	table := comm.SampledBroadcast(nd, row, 2*k+2, leader)
	endC()

	// Phase E: local replay, identical everywhere, so computed once per
	// lockstep run from the leaders' rows in ascending leader order.
	flat := make([]uint64, 0, k*(2*k+2))
	for _, c := range comps {
		r := table[c]
		if r == nil {
			nd.Fail("mst: SketchFind missing row from leader %d", c)
		}
		flat = append(flat, r...)
	}
	stats := SketchStats{Components: k}
	for i := range comps {
		if tele := flat[i*(2*k+2)+2*k]; tele&1 != 0 {
			stats.SampleTotal++
			if tele&2 != 0 {
				stats.SampleOK++
			}
		}
	}
	done := clique.Replicated(nd, "mst/replay", m, flat, (*boruvkaMerge).replay)
	return slices.Clone(done.forest), stats
}

// seedPhase is phase on BroadcastAll's table of one (pair, weight)
// word pair per node, split into phase's pair words then weight words
// inside the replicated merge, so once per lockstep run.
func (m *boruvkaMerge) seedPhase(table []uint64) *boruvkaMerge {
	n := len(m.comp)
	ann := make([]uint64, 2*n)
	for v := 0; v < n; v++ {
		ann[v], ann[n+v] = table[2*v], table[2*v+1]
	}
	return mergePhase(m, ann)
}

// leaders returns the component labels in ascending order: labels are
// minimum member ids, so these are also the leaders' node ids.
func (m *boruvkaMerge) leaders() []int {
	comps := make([]int, 0, len(m.comp))
	for v, c := range m.comp {
		if c == v {
			comps = append(comps, v)
		}
	}
	return comps
}

// replay finishes SketchFind from the seed partition m and the
// leaders' rows, concatenated in ascending leader order: it collects
// the contracted edges (the minimum per component pair), then runs
// Kruskal over the seed partition under the shared (W, U, V) order.
// The returned state's forest is the final forest, sorted; m is not
// modified.
func (m *boruvkaMerge) replay(rows []uint64) *boruvkaMerge {
	n := len(m.comp)
	comps := m.leaders()
	k := len(comps)
	type pairKey struct{ a, b int }
	contracted := make(map[pairKey]Edge)
	for j, c := range comps {
		r := rows[j*(2*k+2) : (j+1)*(2*k+2)]
		for i, a := range comps {
			if r[2*i] == noEdge {
				continue
			}
			u, v := clique.UnpairWord(r[2*i], n)
			e := Edge{U: u, V: v, W: int64(r[2*i+1])}
			key := pairKey{a, c}
			if key.a > key.b {
				key.a, key.b = key.b, key.a
			}
			if cur, ok := contracted[key]; !ok || better(e, cur) {
				contracted[key] = e
			}
		}
	}
	edges := make([]Edge, 0, len(contracted))
	for _, e := range contracted {
		edges = append(edges, e)
	}
	keys := make([]uint64, max(n, len(edges))) // sort scratch for both sorts
	sortEdges(edges, n, keys)
	next := &boruvkaMerge{comp: make([]int, n), uf: slices.Clone(m.uf), forest: slices.Clone(m.forest)}
	for _, e := range edges {
		if next.uf.union(e.U, e.V) {
			next.forest = append(next.forest, e)
		}
	}
	sortEdges(next.forest, n, keys)
	for v := range next.comp {
		next.comp[v] = next.uf.find(v)
	}
	return next
}
