package mst

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/sketch"
	"repro/internal/trace"
)

// SparseStats is SparseFind's telemetry; Phases is identical at every
// node, the rest is populated at the coordinator.
type SparseStats struct {
	// Phases is the number of merge phases executed.
	Phases int
	// Merges is the number of forest edges accepted (coordinator only).
	Merges int
	// Components is the final component count (coordinator only).
	Components int
}

// stopWord is the leader-to-member "component finished, stop
// proposing" signal; any value < n is instead a rejection naming an
// internal endpoint.
const stopWord = noEdge

// sparseFingerprint sizes the 4-word cut fingerprints SparseFind
// maintains: single-level, two-repetition sketches whose only job is
// the exact-linearity emptiness test (cut empty ⇔ the XOR of the
// members' incidence fingerprints is zero, up to a ~2^-122 collision).
func sparseFingerprint(n int, seed uint64) sketch.Params {
	return sketch.Params{N: n, Levels: 1, Reps: 2, Seed: seed ^ 0x5bd1e9955bd1e995}
}

// SparseFind computes the minimum spanning forest with o(m) total
// message words on dense inputs, in the style of the message-frugal
// MST algorithms (Pemmaraju–Sardeshmukh, arXiv:1610.03897): no node
// ever enumerates its weight row over the wire. Nodes propose only
// their cheapest not-known-internal edge to their component leader;
// leaders validate proposals against an exact member roster, forward
// one candidate per component to the coordinator (node 0), and track
// component completion with XOR-merged cut fingerprints
// (internal/sketch) so finished components go silent instead of
// probing out their remaining edges. The coordinator merges with the
// shared (W, U, V) total order, so the forest is exactly the one
// Find, SketchFind and KruskalForest produce.
//
// A component merges only in phases where every member proposal
// validated — a rejected proposal (edge gone internal since the
// member last looked) stalls the component for one phase while the
// member re-proposes, which keeps every accepted candidate the true
// minimum outgoing edge of its component (the cut property needs the
// component minimum, not just some member's minimum).
//
// The output contract is message-frugal too: the coordinator returns
// the full sorted forest, every other node returns nil (broadcasting
// the forest everywhere is a dense operation the caller can pay for
// separately). Requires wpp >= 6 (registration plus fingerprint in
// one round).
func SparseFind(nd clique.Endpoint, wRow []int64, seed uint64) ([]Edge, SparseStats) {
	n := nd.N()
	me := nd.ID()
	wpp := nd.WordsPerPair()
	if wpp < 6 {
		nd.Fail("mst: SparseFind needs wpp >= 6, got %d", wpp)
	}
	if n == 1 {
		// No edges, and the fingerprints need n >= 2.
		return nil, SparseStats{Components: 1}
	}

	// Per-node state.
	label := me
	internal := make([]bool, n) // neighbors confirmed same-component
	stopped := false
	replyDue := false // a rejection obliges a fresh proposal next phase

	// cur.next(internal) is this node's current proposal: the
	// (W, U, V)-least incident edge not yet known internal. Marks only
	// grow, so the cursor finds it in O(deg) over the whole run.
	cur := newIncidentCursor(me, wRow)
	proposalWords := func() []uint64 {
		if e, ok := cur.next(internal); ok {
			return []uint64{clique.PairWord(e.U, e.V, n), uint64(e.W)}
		}
		return []uint64{noEdge}
	}

	// Leader state: exact roster, cached member proposals, merged cut
	// fingerprint. Every node starts as the leader of itself.
	const (
		propNone = iota
		propValid
		propExhausted
		propPending // rejection sent, replacement not yet arrived
	)
	roster := make([]bool, n)
	roster[me] = true
	var members []int // roster without me, ascending
	propState := make([]int, n)
	propEdge := make([]Edge, n)
	fp := sketch.New(sparseFingerprint(n, seed))
	for u := 0; u < n; u++ {
		if u != me && wRow[u] < graph.Inf {
			fp.Toggle(me, u)
		}
	}
	isolatedReported := false

	// Coordinator state (node 0; its own label is always 0, since
	// labels are minimum member ids).
	var (
		uf       unionFind
		labels   []int
		isolated []bool
		forest   []Edge
		keys     []uint64 // sortEdges scratch: a phase has at most n candidates
	)
	if me == 0 {
		uf = newUnionFind(n)
		keys = make([]uint64, n)
		labels = make([]int, n)
		for v := range labels {
			labels[v] = v
		}
		isolated = make([]bool, n)
	}

	// The per-phase message lists and SendToFew receive lists are reused
	// across phases, so a silent node's phase allocates nothing.
	var msgsA, msgsB, msgsD []comm.Msg
	var inA, inB, inD []comm.Delivery

	stats := SparseStats{}
	maxPhases := 2*n*n + 64
	for {
		stats.Phases++
		if stats.Phases > maxPhases {
			nd.Fail("mst: SparseFind exceeded %d phases without converging", maxPhases)
		}
		endPhase := trace.Phase(nd, "sparsemst/phase")

		// Round A: members answer outstanding rejections with their
		// next candidate (or an exhausted notice).
		msgsA = msgsA[:0]
		if !stopped && label != me && replyDue {
			msgsA = append(msgsA, comm.Msg{To: label, Words: proposalWords()})
			replyDue = false
		}
		inA = comm.SendToFew(nd, msgsA, 1, inA[:0])
		if label == me {
			for _, d := range inA {
				p := d.From
				if !roster[p] {
					nd.Fail("mst: SparseFind leader %d got proposal from non-member %d", me, p)
				}
				if len(d.Words) == 1 {
					propState[p] = propExhausted
					continue
				}
				u, v := clique.UnpairWord(d.Words[0], n)
				propEdge[p] = Edge{U: u, V: v, W: int64(d.Words[1])}
				propState[p] = propValid // validated below
			}
		}

		// Round B: leaders revalidate the cache against the (possibly
		// grown) roster, reject stale proposals, and either report
		// isolation or forward the exact component minimum to the
		// coordinator.
		msgsB = msgsB[:0]
		var localIsolated, localCandOK bool
		var localCand Edge
		if label == me && !stopped {
			// My own candidate never needs the round trip: members are
			// marked internal as they register, which keeps cur exact.
			if fp.Empty() {
				// Cut is empty: component done. Hush the members and
				// tell the coordinator once.
				stopped = true
				for _, x := range members {
					msgsB = append(msgsB, comm.Msg{To: x, Words: []uint64{stopWord}})
				}
				if !isolatedReported {
					isolatedReported = true
					if me == 0 {
						localIsolated = true
					} else {
						msgsB = append(msgsB, comm.Msg{To: 0, Words: []uint64{noEdge}})
					}
				}
			} else {
				pending := false
				best := Edge{U: -1, W: graph.Inf}
				allExhausted := true
				if e, ok := cur.next(internal); ok {
					best = e
					allExhausted = false
				}
				for _, x := range members {
					switch propState[x] {
					case propValid:
						if roster[propEdge[x].V] {
							// Gone internal since x proposed: reject,
							// naming the endpoint so x marks it.
							msgsB = append(msgsB, comm.Msg{To: x, Words: []uint64{uint64(propEdge[x].V)}})
							propState[x] = propPending
							pending = true
						} else {
							allExhausted = false
							if better(propEdge[x], best) {
								best = propEdge[x]
							}
						}
					case propPending, propNone:
						pending = true
					case propExhausted:
						// nothing to contribute
					}
				}
				if allExhausted && !pending {
					// Every member out of candidates but the cut
					// fingerprint is nonzero: impossible unless an
					// internal mark was wrong.
					nd.Fail("mst: SparseFind component %d exhausted with nonempty cut fingerprint", me)
				}
				if !pending && best.U >= 0 {
					if me == 0 {
						localCand, localCandOK = best, true
					} else {
						msgsB = append(msgsB, comm.Msg{To: 0,
							Words: []uint64{clique.PairWord(best.U, best.V, n), uint64(best.W)}})
					}
				}
			}
		}
		inB = comm.SendToFew(nd, msgsB, 1, inB[:0])
		if !stopped && label != me {
			if got := wordsFrom(inB, label); got != nil {
				if len(got) != 1 {
					nd.Fail("mst: SparseFind member %d got %d-word leader reply", me, len(got))
				}
				if got[0] == stopWord {
					stopped = true
				} else {
					internal[got[0]] = true
					replyDue = true
				}
			}
		}

		// Round C: the coordinator merges this phase's candidates under
		// the (W, U, V) order, relabels, and broadcasts continue/done;
		// changed nodes additionally receive their new label.
		var flag uint64
		newLabel := label
		if me == 0 {
			var cands []Edge
			if localCandOK {
				cands = append(cands, normalize(localCand))
			}
			if localIsolated {
				isolated[0] = true
			}
			for _, d := range inB {
				switch len(d.Words) {
				case 1:
					isolated[uf.find(d.From)] = true
				case 2:
					u, v := clique.UnpairWord(d.Words[0], n)
					cands = append(cands, normalize(Edge{U: u, V: v, W: int64(d.Words[1])}))
				default:
					nd.Fail("mst: SparseFind coordinator got %d-word report from %d", len(d.Words), d.From)
				}
			}
			sortEdges(cands, n, keys)
			for _, e := range cands {
				if uf.union(e.U, e.V) {
					forest = append(forest, e)
				}
			}
			done := true
			for v := 0; v < n; v++ {
				if !isolated[uf.find(v)] {
					done = false
					break
				}
			}
			if done {
				flag = 1
			}
			nd.Broadcast(flag)
			for v := 1; v < n; v++ {
				if nl := uf.find(v); nl != labels[v] {
					labels[v] = nl
					nd.Send(v, uint64(nl))
				}
			}
		}
		nd.Tick()
		if me != 0 {
			got := nd.Recv(0)
			switch len(got) {
			case 1:
				flag = got[0]
			case 2:
				flag, newLabel = got[0], int(got[1])
			default:
				nd.Fail("mst: SparseFind node %d got %d-word coordinator round", me, len(got))
			}
		}

		// Round D: relabeled nodes register with their new leader,
		// delivering a fresh proposal; a dying leader additionally
		// hands its merged cut fingerprint over, so the new leader's
		// fingerprint stays the XOR over all member incidence
		// fingerprints (internal edges cancel — the cut, exactly).
		msgsD = msgsD[:0]
		if newLabel != label {
			dying := label == me
			label = newLabel
			words := proposalWords()
			if dying {
				words = append(append([]uint64{}, words...), fp.Row...)
			}
			msgsD = append(msgsD, comm.Msg{To: label, Words: words})
			replyDue = false
		}
		inD = comm.SendToFew(nd, msgsD, 1, inD[:0])
		if label == me && len(inD) > 0 {
			for _, d := range inD {
				p := d.From
				roster[p] = true
				internal[p] = true
				members = append(members, p)
				words := d.Words
				if len(words) >= 5 { // registration + fingerprint
					fp.MergeRow(words[len(words)-4:])
					words = words[:len(words)-4]
				}
				if len(words) == 1 {
					propState[p] = propExhausted
				} else {
					u, v := clique.UnpairWord(words[0], n)
					propEdge[p] = Edge{U: u, V: v, W: int64(words[1])}
					propState[p] = propValid
				}
			}
			slices.Sort(members)
		}
		endPhase()
		if flag == 1 {
			break
		}
	}

	if me == 0 {
		sortEdges(forest, n, keys)
		stats.Merges = len(forest)
		for v := 0; v < n; v++ {
			if uf.find(v) == v {
				stats.Components++
			}
		}
		return forest, stats
	}
	return nil, stats
}

// wordsFrom returns the words a SendToFew receive list holds from
// sender p, or nil if p was silent.
func wordsFrom(in []comm.Delivery, p int) []uint64 {
	for _, d := range in {
		if d.From == p {
			return d.Words
		}
	}
	return nil
}

// incidentCursor walks one node's incident edges in the package order
// (W, U, V), which for edges sharing the endpoint me is (W, far end).
// The far ends are sorted once; next skips those marked internal, and
// because marks only grow, what it skips stays skipped.
type incidentCursor struct {
	me   int
	w    []int64
	mask uint64
	// keys holds the far ends in (W, id) order, each in its low bits:
	// W<<b | id when every weight fits, the bare id otherwise.
	keys []uint64
	pos  int
}

// newIncidentCursor sorts me's incident edges: with b = bits.Len(n),
// as packed keys W<<b | id when every weight lies in [0, 2^(64−b)),
// as sortEdges does, and with a comparator otherwise.
func newIncidentCursor(me int, wRow []int64) *incidentCursor {
	b := uint(bits.Len(uint(len(wRow))))
	deg, fits := 0, true
	for u, w := range wRow {
		if u == me || w >= graph.Inf {
			continue
		}
		deg++
		// A negative weight converts with its top bit set, so it fails
		// the width test too.
		if bits.Len64(uint64(w)) > 64-int(b) {
			fits = false
		}
	}
	c := &incidentCursor{me: me, w: wRow, mask: 1<<b - 1, keys: make([]uint64, 0, deg)}
	for u, w := range wRow {
		if u == me || w >= graph.Inf {
			continue
		}
		if fits {
			c.keys = append(c.keys, uint64(w)<<b|uint64(u))
		} else {
			c.keys = append(c.keys, uint64(u))
		}
	}
	if fits {
		slices.Sort(c.keys)
	} else {
		slices.SortFunc(c.keys, func(x, y uint64) int {
			return cmp.Or(cmp.Compare(wRow[x], wRow[y]), cmp.Compare(x, y))
		})
	}
	return c
}

// next returns the least incident edge whose far end is not marked in
// internal, and false when none is left.
func (c *incidentCursor) next(internal []bool) (Edge, bool) {
	for c.pos < len(c.keys) && internal[c.keys[c.pos]&c.mask] {
		c.pos++
	}
	if c.pos == len(c.keys) {
		return Edge{U: -1, W: graph.Inf}, false
	}
	u := int(c.keys[c.pos] & c.mask)
	return Edge{U: c.me, V: u, W: c.w[u]}, true
}
