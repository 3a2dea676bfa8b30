package core

import (
	"slices"

	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/nondet"
)

// This file implements Theorem 6's canonical problem family for
// NCLIQUE(1): edge labelling problems. A problem labels ALL edges of the
// communication clique (not just the input graph's edges) with
// O(log n)-bit labels, and each node checks the labels of its incident
// edges against a local constraint on its input neighbourhood. Theorem
// 6: NCLIQUE(1) is contained in CLIQUE(T) iff all edge labelling
// problems are solvable in O(T) rounds — so these problems are
// "complete" for constant-round nondeterminism. CompileNCLIQUE1 builds
// the problem of a given verifier as a CompiledProblem.

// EdgeLabelling assigns a label to every unordered clique edge; the
// in-model representation gives node v the labels of its incident
// edges, labels[v][u] for u != v, with labels[v][u] == labels[u][v]
// (checked during verification).
type EdgeLabelling [][]uint64

// NewEdgeLabelling allocates an all-zero labelling for n nodes.
func NewEdgeLabelling(n int) EdgeLabelling {
	l := make(EdgeLabelling, n)
	for i := range l {
		l[i] = make([]uint64, n)
	}
	return l
}

// Set assigns a label to edge {u, v} on both sides.
func (l EdgeLabelling) Set(u, v int, label uint64) {
	l[u][v] = label
	l[v][u] = label
}

// labelsAgree is the consistency round every edge labelling verifier
// runs: each node sends each incident label to the edge's other
// endpoint and reports whether every peer holds the same label.
func labelsAgree(nd clique.Endpoint, labelRow []uint64) bool {
	peers, delivered := comm.AllToAllWord(nd, labelRow)
	me := nd.ID()
	for v := range peers {
		if v != me && (!delivered[v] || peers[v] != labelRow[v]) {
			return false
		}
	}
	return true
}

// CompiledProblem is the canonical edge labelling problem of a
// constant-round nondeterministic verifier A (Theorem 6). Its
// constraint is stated per node: node u accepts its incident label row
// iff some original certificate makes A, fed exactly the incoming
// messages the row records, send exactly the outgoing ones and accept.
// The paper's per-edge constraint is the existential projection of this
// row check; the row is the natural in-model object, since u holds all
// its incident labels once the consistency round has confirmed them.
type CompiledProblem struct {
	Name string
	// T is the verifier's round bound.
	T int
	// MaxLabel bounds the packed per-edge labels.
	MaxLabel uint64
	// CheckRow decides whether a node's full incident label row is
	// realisable: some original label makes A reproduce it and accept.
	// It is local: it replays A at this node and sends nothing.
	CheckRow func(nd clique.Endpoint, row graph.Bitset, labelRow []uint64) bool
}

// CompileNCLIQUE1 compiles verifier A (round bound T, one word per pair
// per round, original label space `space`) into its canonical edge
// labelling problem, following the proof of Theorem 6: the label of
// edge {u, v} encodes the messages of an accepting run of A on that
// edge, both directions and all T rounds (see labelCodec). maxWord must
// bound every word A sends (poly(n), so labels stay O(log n) bits for
// constant T).
func CompileNCLIQUE1(name string, alg nondet.Algorithm, T int, space nondet.LabelSpace, maxWord uint64) CompiledProblem {
	codec := newLabelCodec(T, maxWord)
	maxLabel := codec.maxLabel()

	return CompiledProblem{
		Name:     name,
		T:        T,
		MaxLabel: maxLabel,
		CheckRow: func(nd clique.Endpoint, row graph.Bitset, labelRow []uint64) bool {
			n := nd.N()
			me := nd.ID()
			// Decode the incident labels into per-round sent/received
			// messages.
			inbox := make([][][]uint64, T)
			sent := make([][][]uint64, T)
			for r := 0; r < T; r++ {
				inbox[r] = make([][]uint64, n)
				sent[r] = make([][]uint64, n)
			}
			for v := 0; v < n; v++ {
				if v == me {
					continue
				}
				if labelRow[v] >= maxLabel {
					return false
				}
				msgs := codec.decode(labelRow[v])
				out, in := 0, 1 // me is the edge's lower endpoint
				if me > v {
					out, in = 1, 0
				}
				for r := 0; r < T; r++ {
					sent[r][v] = msgs[2*r+out]
					inbox[r][v] = msgs[2*r+in]
				}
			}
			// Local search over original labels, replaying A against
			// the decoded inbox and demanding the decoded outbox.
			found := false
			space(func(cand []uint64) bool {
				accepted := false
				rep, err := clique.Replay(clique.Config{N: n, WordsPerPair: 1}, me,
					func(sim *clique.Node) {
						accepted = alg(sim, row, cand)
					}, inbox)
				if err != nil || !rep.Completed || !accepted || len(rep.Sent) != T {
					return true
				}
				for r := 0; r < T; r++ {
					for v := 0; v < n; v++ {
						if v != me && !slices.Equal(rep.Sent[r][v], sent[r][v]) {
							return true
						}
					}
				}
				found = true
				return false
			})
			return found
		},
	}
}

// VerifyCompiled runs the compiled problem's verifier in-model: one
// consistency round for the labels plus the local realisability check.
// Constant rounds, as Theorem 6 requires.
func VerifyCompiled(nd clique.Endpoint, row graph.Bitset, p CompiledProblem, labelRow []uint64) bool {
	return labelsAgree(nd, labelRow) && p.CheckRow(nd, row, labelRow)
}

// LabelsFromTranscripts builds the edge labelling of an accepting run
// from its recorded transcripts (the completeness direction of
// Theorem 6).
func LabelsFromTranscripts(trs []*clique.Transcript, T int, maxWord uint64) EdgeLabelling {
	n := len(trs)
	codec := newLabelCodec(T, maxWord)
	sentIn := func(tr *clique.Transcript, r, to int) []uint64 {
		if r < len(tr.Rounds) {
			return tr.Rounds[r].Sent[to]
		}
		return nil
	}
	labels := NewEdgeLabelling(n)
	msgs := make([][]uint64, 2*T)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			for r := 0; r < T; r++ {
				msgs[2*r], msgs[2*r+1] = sentIn(trs[u], r, v), sentIn(trs[v], r, u)
			}
			labels.Set(u, v, codec.encode(msgs))
		}
	}
	return labels
}

// labelCodec is the one label encoding of the compiled problems. The
// label of clique edge {lo, hi}, lo < hi, packs the edge's 2T messages
// base-(maxWord+2) positionally: slot 2r holds what lo sent hi in round
// r, slot 2r+1 what hi sent lo. A one-word message w fills its slot
// with w+1; value 0 means "no message".
type labelCodec struct {
	base  uint64
	slots int
}

func newLabelCodec(T int, maxWord uint64) labelCodec {
	return labelCodec{base: maxWord + 2, slots: 2 * T}
}

// maxLabel is the exclusive bound on encoded labels, base^slots.
func (c labelCodec) maxLabel() uint64 {
	m := uint64(1)
	for i := 0; i < c.slots; i++ {
		m *= c.base
	}
	return m
}

// encode packs one message per slot into a label.
func (c labelCodec) encode(msgs [][]uint64) uint64 {
	var lab uint64
	for i := c.slots - 1; i >= 0; i-- {
		lab *= c.base
		if len(msgs[i]) == 1 {
			lab += msgs[i][0] + 1
		}
	}
	return lab
}

// decode is encode's inverse on labels below maxLabel: one message per
// slot, nil where the slot is empty.
func (c labelCodec) decode(lab uint64) [][]uint64 {
	msgs := make([][]uint64, c.slots)
	for i := range msgs {
		if s := lab % c.base; s > 0 {
			msgs[i] = []uint64{s - 1}
		}
		lab /= c.base
	}
	return msgs
}
