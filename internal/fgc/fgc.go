package fgc

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Problem is one node of the Figure 1 map.
type Problem struct {
	Key  string
	Name string
	// LitUpper is the exponent upper bound from the paper/literature
	// ([k] references in the Why fields of edges).
	LitUpper float64
	// ImplUpper is the exponent realised by this repository's
	// implementation (+Inf if the problem has no direct
	// implementation here).
	ImplUpper float64
	// ImplRef names the implementing function.
	ImplRef string
	// Note carries display information (e.g. the parameter k).
	Note string
}

// Relation is a directed exponent inequality delta(Lo) <= delta(Hi).
type Relation struct {
	Lo, Hi string
	// Why cites the reduction or containment.
	Why string
}

// Map is the whole Figure 1 structure.
type Map struct {
	Problems  []Problem
	Relations []Relation
}

// omega is the matrix multiplication exponent cited by the paper
// (Le Gall [41]).
const omega = 2.3728639

// Figure1 returns the paper's map. The parameterised families (k-IS,
// k-DS, k-cycle, size-k subgraph) are instantiated at the given k >= 3.
func Figure1(k int) *Map {
	kf := float64(k)
	m := &Map{
		Problems: []Problem{
			{Key: "ring-mm", Name: "Ring MM", LitUpper: 1 - 2/omega, ImplUpper: 1.0 / 3, ImplRef: "matmul.Mul3D"},
			{Key: "boolean-mm", Name: "Boolean MM", LitUpper: 1 - 2/omega, ImplUpper: 1.0 / 3, ImplRef: "matmul.Mul3D"},
			{Key: "semiring-mm", Name: "Semiring MM", LitUpper: 1.0 / 3, ImplUpper: 1.0 / 3, ImplRef: "matmul.Mul3D"},
			{Key: "minplus-mm", Name: "(min,+) MM", LitUpper: 1.0 / 3, ImplUpper: 1.0 / 3, ImplRef: "matmul.Mul3D"},
			{Key: "transitive-closure", Name: "Transitive closure", LitUpper: 1 - 2/omega, ImplUpper: 1.0 / 3, ImplRef: "paths.TransitiveClosure"},

			{Key: "apsp-uw-ud", Name: "APSP uw/ud", LitUpper: 1 - 2/omega, ImplUpper: 1.0 / 3, ImplRef: "paths.APSP"},
			{Key: "apsp-uw-d", Name: "APSP uw/d", LitUpper: 0.2096, ImplUpper: 1.0 / 3, ImplRef: "paths.APSP"},
			{Key: "apsp-w-ud", Name: "APSP w/ud", LitUpper: 1.0 / 3, ImplUpper: 1.0 / 3, ImplRef: "paths.APSP"},
			{Key: "apsp-w-d", Name: "APSP w/d", LitUpper: 1.0 / 3, ImplUpper: 1.0 / 3, ImplRef: "paths.APSP"},
			{Key: "apsp-w-ud-2eps", Name: "APSP w/ud (2-eps)", LitUpper: 1 - 2/omega, ImplUpper: 1.0 / 3, ImplRef: "paths.ApproxAPSP"},
			{Key: "apsp-w-ud-1eps", Name: "APSP w/ud (1+eps)", LitUpper: 1 - 2/omega, ImplUpper: 1.0 / 3, ImplRef: "paths.ApproxAPSP"},

			{Key: "bfs-tree", Name: "BFS tree", LitUpper: 0, ImplUpper: 1, ImplRef: "paths.BFS"},
			{Key: "sssp-uw-ud", Name: "SSSP uw/ud", LitUpper: 0, ImplUpper: 1.0 / 3, ImplRef: "paths.SSSP/APSP"},
			{Key: "sssp-uw-d", Name: "SSSP uw/d", LitUpper: 0.2096, ImplUpper: 1.0 / 3, ImplRef: "paths.APSP"},
			{Key: "sssp-w-ud", Name: "SSSP w/ud", LitUpper: 1.0 / 3, ImplUpper: 1.0 / 3, ImplRef: "paths.SSSP/APSP"},
			{Key: "sssp-w-d", Name: "SSSP w/d", LitUpper: 1.0 / 3, ImplUpper: 1.0 / 3, ImplRef: "paths.APSP"},
			{Key: "sssp-w-ud-1eps", Name: "SSSP w/ud (1+eps)", LitUpper: 0, ImplUpper: 1.0 / 3, ImplRef: "paths.ApproxAPSP", Note: "Becker et al. [5]: n^{o(1)}"},

			{Key: "triangle", Name: "Triangle / 3-IS", LitUpper: 1 - 2/omega, ImplUpper: 1.0 / 3, ImplRef: "subgraph.DetectTriangle"},
			{Key: "size-3-subgraph", Name: "Size-3 subgraph", LitUpper: 1 - 2/omega, ImplUpper: 1.0 / 3, ImplRef: "subgraph.DetectPattern"},
			{Key: "k-cycle", Name: fmt.Sprintf("%d-cycle", k), LitUpper: 0.157, ImplUpper: 1 - 2/kf, ImplRef: "subgraph.DetectCycle", Note: "exp(k) n^{0.157} [10]"},
			{Key: "size-k-subgraph", Name: fmt.Sprintf("size-%d subgraph", k), LitUpper: 1 - 2/kf, ImplUpper: 1 - 2/kf, ImplRef: "subgraph.DetectPattern"},
			{Key: "k-is", Name: fmt.Sprintf("%d-IS", k), LitUpper: 1 - 2/kf, ImplUpper: 1 - 2/kf, ImplRef: "subgraph.DetectIndependentSet"},
			{Key: "k-ds", Name: fmt.Sprintf("%d-DS", k), LitUpper: 1 - 1/kf, ImplUpper: 1 - 1/kf, ImplRef: "domset.Find", Note: "Theorem 9 (this paper)"},
			{Key: "k-vc", Name: fmt.Sprintf("%d-VC", k), LitUpper: 0, ImplUpper: 0, ImplRef: "vcover.Find", Note: "Theorem 11 (this paper): O(k) rounds"},

			{Key: "maxis", Name: "MaxIS", LitUpper: 1, ImplUpper: 1, ImplRef: "gather.MaxIndependentSetSize"},
			{Key: "minvc", Name: "MinVC", LitUpper: 1, ImplUpper: 1, ImplRef: "gather.Full + graph.MinVertexCoverSize"},
			{Key: "k-col", Name: fmt.Sprintf("%d-COL", k), LitUpper: 1, ImplUpper: 1, ImplRef: "gather.KColorable / reduction.KColorableViaMaxIS"},
		},
		Relations: []Relation{
			// Matrix multiplication spine.
			{Lo: "boolean-mm", Hi: "ring-mm", Why: "Boolean product embeds in the integer ring [10]"},
			{Lo: "minplus-mm", Hi: "semiring-mm", Why: "(min,+) is a semiring instance"},
			{Lo: "transitive-closure", Hi: "boolean-mm", Why: "Boolean squaring, log n factor vanishes in the exponent [10]"},

			// Shortest paths via matrix products.
			{Lo: "apsp-w-d", Hi: "minplus-mm", Why: "(min,+) squaring, log n squarings [10]"},
			{Lo: "apsp-uw-ud", Hi: "boolean-mm", Why: "distance products on 0/1 weights [10]"},
			{Lo: "apsp-w-ud-1eps", Hi: "ring-mm", Why: "approximate distance products [10]"},
			{Lo: "boolean-mm", Hi: "apsp-w-ud-2eps", Why: "Dor-Halperin-Zwick [17]; reduction.BMMViaApproxAPSP"},

			// Trivial containments among path problems.
			{Lo: "apsp-uw-ud", Hi: "apsp-uw-d", Why: "undirected is a special case of directed"},
			{Lo: "apsp-uw-d", Hi: "apsp-w-d", Why: "unweighted is a special case of weighted"},
			{Lo: "apsp-uw-ud", Hi: "apsp-w-ud", Why: "unweighted is a special case of weighted"},
			{Lo: "apsp-w-ud", Hi: "apsp-w-d", Why: "undirected is a special case of directed"},
			{Lo: "apsp-w-ud-2eps", Hi: "apsp-w-ud-1eps", Why: "a (1+eps)-approximation is a (2-eps')-approximation"},
			{Lo: "apsp-w-ud-1eps", Hi: "apsp-w-ud", Why: "exact solves approximate"},
			{Lo: "sssp-uw-ud", Hi: "apsp-uw-ud", Why: "single source from all pairs"},
			{Lo: "sssp-uw-d", Hi: "apsp-uw-d", Why: "single source from all pairs"},
			{Lo: "sssp-w-ud", Hi: "apsp-w-ud", Why: "single source from all pairs"},
			{Lo: "sssp-w-d", Hi: "apsp-w-d", Why: "single source from all pairs"},
			{Lo: "sssp-uw-ud", Hi: "sssp-w-ud", Why: "unweighted is a special case of weighted"},
			{Lo: "sssp-uw-ud", Hi: "sssp-uw-d", Why: "undirected is a special case of directed"},
			{Lo: "sssp-w-ud", Hi: "sssp-w-d", Why: "undirected is a special case of directed"},
			{Lo: "sssp-w-ud-1eps", Hi: "sssp-w-ud", Why: "exact solves approximate"},
			{Lo: "bfs-tree", Hi: "sssp-uw-ud", Why: "BFS tree from unweighted SSSP"},

			// Subgraph detection.
			{Lo: "triangle", Hi: "boolean-mm", Why: "triangle detection from the square of the adjacency matrix [10]"},
			{Lo: "size-3-subgraph", Hi: "boolean-mm", Why: "[10]"},
			{Lo: "triangle", Hi: "size-3-subgraph", Why: "a triangle is a size-3 subgraph"},
			{Lo: "k-cycle", Hi: "size-k-subgraph", Why: "a k-cycle is a size-k subgraph"},
			{Lo: "k-is", Hi: "size-k-subgraph", Why: "independent sets are size-k subgraphs of the complement [16]"},

			// The paper's new contributions.
			{Lo: "k-is", Hi: "k-ds", Why: "Theorem 10: gadget reduction, O(k^{2 delta + 4}) overhead; reduction.FindISViaDS"},
			{Lo: "k-is", Hi: "maxis", Why: "trivial"},
			{Lo: "k-col", Hi: "maxis", Why: "clique blow-up [46]; reduction.KColorableViaMaxIS"},
			{Lo: "maxis", Hi: "minvc", Why: "complement sets (Gallai)"},
			{Lo: "minvc", Hi: "maxis", Why: "complement sets (Gallai)"},
		},
	}
	return m
}

// Get returns the problem with the given key.
func (m *Map) Get(key string) (*Problem, bool) {
	for i := range m.Problems {
		if m.Problems[i].Key == key {
			return &m.Problems[i], true
		}
	}
	return nil, false
}

// ImpliedUpper propagates upper bounds through the relations until a
// fixed point: delta(Lo) <= delta(Hi) lets Hi's bound flow to Lo. If
// fromImpl is true the implemented bounds seed the propagation,
// otherwise the literature bounds do.
func (m *Map) ImpliedUpper(fromImpl bool) map[string]float64 {
	out := make(map[string]float64, len(m.Problems))
	for _, p := range m.Problems {
		if fromImpl {
			out[p.Key] = p.ImplUpper
		} else {
			out[p.Key] = p.LitUpper
		}
	}
	for changed := true; changed; {
		changed = false
		for _, r := range m.Relations {
			if out[r.Hi] < out[r.Lo] {
				out[r.Lo] = out[r.Hi]
				changed = true
			}
		}
	}
	return out
}

// Validate checks the structural sanity of the map: every relation
// endpoint exists, no self-loops, keys unique, and the literature bounds
// already respect the relations (Figure 1 is drawn consistently).
func (m *Map) Validate() []string {
	var issues []string
	seen := make(map[string]bool)
	for _, p := range m.Problems {
		if seen[p.Key] {
			issues = append(issues, "duplicate key "+p.Key)
		}
		seen[p.Key] = true
	}
	for _, r := range m.Relations {
		if !seen[r.Lo] || !seen[r.Hi] {
			issues = append(issues, fmt.Sprintf("relation %s <= %s references unknown key", r.Lo, r.Hi))
		}
		if r.Lo == r.Hi {
			issues = append(issues, "self-loop at "+r.Lo)
		}
	}
	implied := m.ImpliedUpper(false)
	for _, p := range m.Problems {
		if implied[p.Key] < p.LitUpper-1e-9 {
			issues = append(issues, fmt.Sprintf(
				"%s: literature bound %.4f is not the tightest implied (%.4f) — figure should be drawn with the implied bound",
				p.Key, p.LitUpper, implied[p.Key]))
		}
	}
	return issues
}

// FitExponent estimates delta from measured (n, rounds) pairs by
// least-squares on log(rounds) ~ delta * log(n) + c. Needs at least two
// distinct n.
func FitExponent(ns []int, rounds []int) float64 {
	if len(ns) != len(rounds) || len(ns) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range ns {
		x := math.Log(float64(ns[i]))
		y := math.Log(float64(rounds[i]))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	k := float64(len(ns))
	den := k*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (k*sxy - sx*sy) / den
}

// DOT renders the map in Graphviz format, annotating nodes with both
// bounds.
func (m *Map) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph figure1 {\n  rankdir=BT;\n")
	keys := make([]string, 0, len(m.Problems))
	for _, p := range m.Problems {
		keys = append(keys, p.Key)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p, _ := m.Get(k)
		fmt.Fprintf(&sb, "  %q [label=%q];\n", p.Key,
			fmt.Sprintf("%s\\nlit<=%.3f impl<=%.3f", p.Name, p.LitUpper, p.ImplUpper))
	}
	for _, r := range m.Relations {
		fmt.Fprintf(&sb, "  %q -> %q;\n", r.Lo, r.Hi)
	}
	sb.WriteString("}\n")
	return sb.String()
}
