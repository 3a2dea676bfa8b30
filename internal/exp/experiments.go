package exp

import (
	"fmt"
	"slices"

	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/domset"
	"repro/internal/fgc"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/mst"
	"repro/internal/nondet"
	"repro/internal/reduction"
	"repro/internal/routing"
	"repro/internal/subgraph"
	"repro/internal/workload"
)

// The registered experiments, in report order. Each body is the former
// cmd/cliquebench exp* function rewritten against Ctx: simulated runs
// go through c.RunWorkloads / c.Rounds / c.Verify (per-experiment cost
// accounting), findings land in typed tables, metrics, and notes.
func init() {
	Register(Experiment{ID: "fig1", Artefact: "E1 / Figure 1",
		Title: "measured exponents vs the fine-grained map", Run: expFig1})
	Register(Experiment{ID: "fig2", Artefact: "E2 / Figure 2, Theorem 10",
		Title: "k-IS via k-DS gadget reduction", Run: expFig2})
	Register(Experiment{ID: "thm2", Artefact: "E3 / Theorem 2",
		Title: "protocol counting and the time hierarchy", Run: expThm2})
	Register(Experiment{ID: "thm4", Artefact: "E6 / Theorem 4",
		Title: "nondeterministic time hierarchy parameters", Run: expThm4})
	Register(Experiment{ID: "thm8", Artefact: "E9 / Theorem 8",
		Title: "no level of the logarithmic hierarchy holds everything", Run: expThm8})
	Register(Experiment{ID: "lemma1", Artefact: "E4 / Lemma 1",
		Title: "exhaustive micro diagonalisation at (n,b,t) = (2,1,1)", Run: expLemma1})
	Register(Experiment{ID: "thm3", Artefact: "E5 / Theorem 3",
		Title: "normal form: certificates become transcripts", Run: expThm3})
	Register(Experiment{ID: "thm6", Artefact: "E7 / Theorem 6",
		Title: "NCLIQUE(1) compiled to edge labelling problems", Run: expThm6})
	Register(Experiment{ID: "thm7", Artefact: "E8 / Theorem 7",
		Title: "unlimited hierarchy collapses to Sigma_2", Run: expThm7})
	Register(Experiment{ID: "thm9", Artefact: "E10 / Theorem 9",
		Title: "k-dominating set in O(n^{1-1/k}) rounds", Run: expThm9})
	Register(Experiment{ID: "thm11", Artefact: "E11 / Theorem 11",
		Title: "k-vertex cover in O(k) rounds, independent of n", Run: expThm11})
	Register(Experiment{ID: "fpt", Artefact: "E12 / Section 7.3",
		Title: "fixed-parameter landscape: k-VC vs k-IS vs k-DS", Run: expFPT})
	Register(Experiment{ID: "mst", Artefact: "extension / MST",
		Title: "deterministic Boruvka at 2 log n + O(1) rounds", Run: expMST})
	Register(Experiment{ID: "mstsketch", Artefact: "extension / sketch MST",
		Title: "l0-sketch MST in O(1) rounds (AGM cut sketches)", Run: expMSTSketch})
	Register(Experiment{ID: "mstsparse", Artefact: "extension / sparse MST",
		Title: "message-frugal MST with o(m) total words", Run: expMSTSparse})
	Register(Experiment{ID: "sub", Artefact: "E13 / substrates",
		Title: "routing, sorting, matrix multiplication", Run: expSubstrates})
	Register(Experiment{ID: "ablation", Artefact: "ablation",
		Title: "balanced router vs direct delivery on a skewed instance", Run: expAblation})
}

// fig1 is the E1 probe set in table order: each row names its
// fine-grained map key ("" when the problem has none to check against),
// its display name and the internal/workload catalogue entry that
// supplies its word budget and node program, seeded by n. The root
// BenchmarkWorkloads family benchmarks the same instances, so the
// report and the benchmarks cannot drift apart.
var fig1 = []struct{ key, name, alg string }{
	{"semiring-mm", "Boolean MM (3D)", "boolmm-3d"},
	{"", "Boolean MM (naive)", "boolmm-naive"},
	{"apsp-w-ud", "APSP w/ud (min,+ squaring)", "apsp"},
	{"triangle", "Triangle detection", "triangle"},
	{"k-is", "3-IS detection", "k-is"},
	{"k-ds", "3-DS (Theorem 9)", "k-ds"},
	{"k-vc", "3-VC (Theorem 11)", "k-vc"},
	{"maxis", "MaxIS (full gather)", "maxis"},
}

// E1 — Figure 1: measured scaling and fitted exponents for the
// implemented problems, checked against the map's implemented bounds.
func expFig1(c *Ctx) {
	ns := c.Sizes([]int{27, 64, 125, 216}, []int{8, 16})

	t := sweepTable(c, "problem", ns, "fitted", "impl bound")

	// Rows sharing a word budget run as one batched execution at each n:
	// the engine amortises round scheduling across them. Round counts
	// are bit-identical to serial runs (the batched≡serial invariant),
	// so the deterministic envelope does not depend on the grouping.
	algs := make([]workload.Algorithm, len(fig1))
	byWPP := map[int][]int{}
	var order []int
	for i, r := range fig1 {
		alg, ok := workload.Get(r.alg)
		if !ok {
			c.Failf("Figure 1 row %q names unknown workload %q", r.name, r.alg)
		}
		algs[i] = alg
		if len(byWPP[alg.WPP]) == 0 {
			order = append(order, alg.WPP)
		}
		byWPP[alg.WPP] = append(byWPP[alg.WPP], i)
	}
	rounds := make([][]int, len(fig1))
	for i := range rounds {
		rounds[i] = make([]int, len(ns))
	}
	for ni, n := range ns {
		for _, wpp := range order {
			rows := byWPP[wpp]
			specs := make([]workload.Spec, len(rows))
			for j, i := range rows {
				specs[j] = workload.Spec{Alg: algs[i], Seed: uint64(n)}
			}
			for j, run := range c.RunWorkloads(n, wpp, specs...) {
				rounds[rows[j]][ni] = run.Result.Stats.Rounds
			}
		}
	}

	m := fgc.Figure1(3)
	for i, r := range fig1 {
		rs := rounds[i]
		row := []Cell{Str(r.name)}
		for _, rd := range rs {
			row = append(row, Int(rd))
		}
		fit := fgc.FitExponent(ns, rs)
		bound := Str("-")
		if prob, ok := m.Get(r.key); ok && r.key != "" {
			bound = Float(prob.ImplUpper, "%.3f")
		}
		row = append(row, Float(fit, "%.3f"), bound)
		t.Row(row...)
		c.Metric("fitted exponent: "+r.name, fit, "exponent")
	}

	c.Notef("boolean-payload rows (MM, triangle, k-IS, k-DS, k-VC) ride the bit-packed plane:")
	c.Notef("64 entries/word, so small-n rounds shrink and fits can sit below the bounds;")
	c.Notef("3-VC's 0.000 bound is the asymptotic 1+k cap, which packing only tightens at")
	c.Notef("small n (1 + min(k, ceil(ceil(n/64)/wpp)) rounds), leaving a positive small-n fit")
	if issues := m.Validate(); len(issues) > 0 {
		c.Notef("map validation issues: %v", issues)
		c.Metric("figure-1 map issues", float64(len(issues)), "issues")
	} else {
		c.Notef("figure-1 map: all %d arrows consistent (literature and implemented bounds)", len(m.Relations))
		c.Metric("figure-1 map issues", 0, "issues")
	}
}

// sweepTable is an unnamed table with one "n=…" column per size in ns
// between first and last.
func sweepTable(c *Ctx, first string, ns []int, last ...string) *TableBuilder {
	cols := []string{first}
	for _, n := range ns {
		cols = append(cols, fmt.Sprintf("n=%d", n))
	}
	return c.Table("", append(cols, last...)...)
}

// E2 — Figure 2 / Theorem 10: gadget reduction, exhaustive equivalence,
// in-model simulation overhead.
func expFig2(c *Ctx) {
	// Exhaustive equivalence at n=4, k=2 over all 64 graphs.
	mism := 0
	for mask := 0; mask < 64; mask++ {
		g := graph.New(4)
		e := 0
		for u := 0; u < 4; u++ {
			for v := u + 1; v < 4; v++ {
				if mask&(1<<e) != 0 {
					g.AddEdge(u, v)
				}
				e++
			}
		}
		r := reduction.ISDS{N: 4, K: 2}
		if graph.HasIndependentSetOfSize(g, 2) != graph.HasDominatingSetOfSize(r.BuildGraph(g), 2) {
			mism++
		}
	}
	c.Metric("exhaustive n=4 k=2 iff violations", float64(mism), "graphs")

	t := c.Table(fmt.Sprintf("exhaustive n=4 k=2: %d/64 graphs violate the iff (want 0)", mism),
		"n", "k", "|G'|", "direct k-DS", "IS-via-DS sim", "overhead")
	for _, n := range c.Sizes([]int{6, 8, 10}, []int{6, 8}) {
		k := 2
		g := graph.Gnp(n, 0.5, uint64(n)+3)
		r := reduction.ISDS{N: n, K: k}
		direct := c.Rounds(n, 16, func(nd *clique.Node) {
			domset.Find(nd, g.Row(nd.ID()), k)
		})
		sim := c.Rounds(n, 16, func(nd *clique.Node) {
			reduction.FindISViaDS(nd, g.Row(nd.ID()), k)
		})
		t.Row(Int(n), Int(k), Int(r.Total()), Int(direct), Int(sim),
			Float(float64(sim)/float64(direct), "%.1fx"))
	}
	c.Notef("overhead stays bounded as n grows (Theorem 10: O(k^{2 delta + 4}) factor)")
}

// E3 — Theorem 2: the counting tables behind the time hierarchy.
func expThm2(c *Ctx) {
	t := c.Table("", "n", "b", "L", "max hard t")
	for _, n := range []int{64, 256, 1024} {
		b := clique.WordBits(n)
		for _, Lfac := range []int{2, 8, 32} {
			L := Lfac * b
			t.Row(Int(n), Int(b), Int(L), Int64(int64(counting.MaxHardRounds(n, b, L))))
		}
	}
	w := c.Table("Theorem 2 witnesses (L = T log n; hard function avoids T/2-round protocols)",
		"n", "T(n)", "L", "valid", "excluded")
	n := 1 << 14
	for Tn := 2; Tn*4*14 < n; Tn *= 4 {
		wit := counting.Theorem2Params(n, Tn)
		w.Row(Int(n), Int(Tn), Int(wit.Params.L), Bool(wit.Valid), Int64(int64(wit.LowerExcluded)))
	}
}

// E6 — Theorem 4: nondeterministic hierarchy tables.
func expThm4(c *Ctx) {
	t := c.Table("", "n", "T(n)", "M (bits)", "L", "ineq", "valid")
	n := 1 << 12
	for Tn := 4; Tn*4*12 < n; Tn *= 2 {
		w := counting.Theorem4Params(n, Tn)
		t.Row(Int(n), Int(Tn), Int(w.Params.M), Int(w.Params.L),
			Bool(w.PaperInequality), Bool(w.Valid))
	}
}

// E9 — Theorem 8: logarithmic hierarchy separation parameters.
func expThm8(c *Ctx) {
	n := 256
	Tn := 2 * n
	t := c.Table(fmt.Sprintf("T(n) = 2n = %d, L = T^2 log n = %d", Tn, Tn*Tn*clique.WordBits(n)),
		"k", "lhs (bits)", "rhs (bits)", "valid")
	for _, k := range []int{1, 2, 4, 16, 64, 512} {
		w := counting.Theorem8Params(n, k, Tn)
		t.Row(Int(k), Int64(int64(w.PaperLH)), Int64(int64(w.PaperRH)), Bool(w.Valid))
	}
}

// E4 — Lemma 1 made constructive.
func expLemma1(c *Ctx) {
	t := c.Table("", "L", "realisable", "functions", "protocols", "lemma-1 log2", "first hard", "verified")
	for _, L := range []int{1, 2} {
		r := counting.Diagonalise(L)
		hard, verified := Str("-"), Str("-")
		if r.HardExists {
			hard = Strf("%#04x (weight %d)", r.FirstHard, counting.HammingWeight(r.FirstHard))
			verified = Bool(counting.VerifyHard(r.FirstHard, L))
		}
		t.Row(Int(L), Int64(int64(r.Realised)), Int64(int64(r.TotalFunctions)),
			Int64(int64(r.ValidProtocols)), Int64(int64(r.Lemma1BoundLog2)), hard, verified)
		if !r.HardExists {
			c.Notef("L=%d: no hard function (1 bit of bandwidth carries the whole input)", L)
		}
	}
}

// E5 — Theorem 3: transcript certificates.
func expThm3(c *Ctx) {
	t := c.Table("", "n", "orig bits/node", "transcript bits", "bound Tnlogn", "B accepts")
	for _, n := range c.Sizes([]int{6, 10, 16, 24}, []int{6, 10}) {
		g, _ := graph.PlantedColoring(n, 3, 0.7, uint64(n))
		alg := nondet.KColoringVerifier(3)
		z := nondet.KColoringProver(g, 3)
		if z == nil {
			continue
		}
		// TranscriptCertificate, inlined through Verify so the
		// accepting run is part of the throughput report.
		accepting := c.Verify(clique.Config{N: n, RecordTranscript: true}, g, alg, z)
		if !accepting.Accepted {
			c.Failf("nondet: A rejected the labelling; no certificate to extract")
		}
		certs := make(nondet.Labelling, n)
		for v, tr := range accepting.Result.Transcripts {
			certs[v] = nondet.EncodeTranscript(tr, n)
		}
		b := nondet.NormalForm(alg, 1, nondet.WordSpace(3))
		verdict := c.Verify(clique.Config{N: n}, g, b, certs)
		t.Row(Int(n), Int(z.SizeBits(n)), Int(certs.SizeBits(n)),
			Int(1*n*clique.WordBits(n)), Bool(verdict.Accepted))
	}
	c.Notef("transcript size grows as Theta(T n log n); the original labels were O(log n)")
}

// E7 — Theorem 6: edge labelling problems.
func expThm6(c *Ctx) {
	const k = 3
	alg := nondet.KColoringVerifier(k)
	compiled := core.CompileNCLIQUE1("3-col", alg, 1, nondet.WordSpace(k), k)
	t := c.Table("", "n", "verify rounds", "accepted")
	for _, n := range c.Sizes([]int{5, 8, 12}, []int{5, 8}) {
		g, _ := graph.PlantedColoring(n, k, 0.7, uint64(n)+40)
		z := nondet.KColoringProver(g, k)
		verdict := c.Verify(clique.Config{N: n, RecordTranscript: true}, g, alg, z)
		if !verdict.Accepted {
			c.Failf("accepting run failed")
		}
		trs := verdict.Result.Transcripts
		labels := core.LabelsFromTranscripts(trs, 1, k)
		forged := make([][]uint64, n)
		for me := range forged {
			forged[me] = forgedSendRow(trs, me, (me+1)%n, k)
		}
		// The compiled problem's one-round verification; each node also
		// checks its forged row locally, which sends nothing.
		verified, forgedOK := make([]bool, n), make([]bool, n)
		rcount := c.Rounds(n, 1, func(nd *clique.Node) {
			me := nd.ID()
			verified[me] = core.VerifyCompiled(nd, g.Row(me), compiled, labels[me])
			forgedOK[me] = compiled.CheckRow(nd, g.Row(me), forged[me])
		})
		accepted := true
		for me := range verified {
			accepted = accepted && verified[me]
			if forgedOK[me] {
				c.Failf("n=%d: node %d accepted a consistent but unrealisable label row", n, me)
			}
		}
		t.Row(Int(n), Int(rcount), Bool(accepted))
	}
	c.Notef("verification rounds stay constant in n: the canonical family is NCLIQUE(1)-checkable")
}

// forgedSendRow is node me's compiled label row for the run in which me
// claims to have sent peer a different colour from the one it sent
// everyone else. The labelling is consistent at both endpoints, but no
// colour makes the verifier reproduce me's row.
func forgedSendRow(trs []*clique.Transcript, me, peer int, k uint64) []uint64 {
	tr := *trs[me]
	tr.Rounds = slices.Clone(tr.Rounds)
	tr.Rounds[0].Sent = slices.Clone(tr.Rounds[0].Sent)
	tr.Rounds[0].Sent[peer] = []uint64{(tr.Rounds[0].Sent[peer][0] + 1) % k}
	forged := slices.Clone(trs)
	forged[me] = &tr
	return core.LabelsFromTranscripts(forged, 1, k)[me]
}

// E8 — Theorem 7: the Sigma_2 collapse protocol.
func expThm7(c *Ctx) {
	t := c.Table("", "n", "challenges", "honest rejected (want 0)", "lying caught (want >0)")
	for _, n := range []int{3, 4} {
		yes := graph.Complete(n)
		no := graph.Path(n)
		alg := hierarchy.SigmaTwoUniversal(graph.HasTriangle)
		run := func(g *graph.Graph, z1, z2 []([]uint64)) bool {
			bits := make([]bool, g.N)
			c.Rounds(g.N, 1, func(nd *clique.Node) {
				bits[nd.ID()] = alg(nd, g.Row(nd.ID()), [][]uint64{z1[nd.ID()], z2[nd.ID()]})
			})
			return !slices.Contains(bits, false)
		}
		honest := hierarchy.HonestGuess(yes)
		rejected := 0
		for idx := 0; idx < n*n; idx++ {
			z2 := hierarchy.CatchingChallenge(n, 0, idx/n, idx%n)
			if !run(yes, honest, z2) {
				rejected++
			}
		}
		lying := hierarchy.HonestGuess(no)
		lying[0] = hierarchy.EncodeGuess(yes)
		caught := 0
		for idx := 0; idx < n*n; idx++ {
			z2 := hierarchy.CatchingChallenge(n, 0, idx/n, idx%n)
			if !run(no, lying, z2) {
				caught++
			}
		}
		t.Row(Int(n), Int(n*n), Int(rejected), Int(caught))
	}
	c.Notef("honest yes-instances survive every challenge; a lying prover is caught by at least one")
}

// E10 — Theorem 9: k-DS scaling. Every instance is planted, so every
// node must find a dominating set of size k, and they must agree.
func expThm9(c *Ctx) {
	ns := c.Sizes([]int{27, 64, 125, 216}, []int{8, 27})
	t := sweepTable(c, "k", ns, "fitted delta", "bound")
	for _, k := range []int{2, 3} {
		var rs []int
		row := []Cell{Int(k)}
		for _, n := range ns {
			r := planted(c, n, workload.KDS(k), uint64(n))
			rs = append(rs, r)
			row = append(row, Int(r))
		}
		fit := fgc.FitExponent(ns, rs)
		row = append(row, Float(fit, "%.3f"), Float(1-1/float64(k), "%.3f"))
		t.Row(row...)
		c.Metric(fmt.Sprintf("fitted delta (k=%d)", k), fit, "exponent")
	}
}

// E11 — Theorem 11: k-VC rounds depend only on k. Every instance is
// planted; every node must return the same cover of size at most k.
func expThm11(c *Ctx) {
	ns := c.Sizes([]int{16, 32, 64, 128}, []int{8, 16})
	ks := c.Sizes([]int{2, 4, 8}, []int{2, 4})
	t := sweepTable(c, `k\n`, ns, "bound 1+k")
	for _, k := range ks {
		row := []Cell{Int(k)}
		for _, n := range ns {
			row = append(row, Int(kVC(c, n, k, uint64(n)+uint64(k))))
		}
		row = append(row, Int(1+k))
		t.Row(row...)
	}
	c.Notef("rounds are exactly 1 + min(k, ceil(ceil(n/64)/wpp)): the packed main phase")
	c.Notef("broadcasts the uncovered-edge mask when cheaper than the k one-word rounds")
}

// E12 — the Section 7.3 FPT contrast table. Every instance is planted,
// so all three searches must answer yes, agreed by every node, with a
// valid witness where the algorithm returns one.
func expFPT(c *Ctx) {
	k := 3
	t := c.Table("", "n", "k-VC", "k-IS", "k-DS")
	for _, n := range c.Sizes([]int{27, 64, 125}, []int{27}) {
		vc := kVC(c, n, k, uint64(n))
		gi, _ := graph.PlantedIndependentSet(n, k, 0.5, uint64(n)+1)
		is := make([]bool, n)
		ir := c.Rounds(n, 8, func(nd *clique.Node) { is[nd.ID()] = subgraph.DetectIndependentSet(nd, gi.Row(nd.ID()), k) })
		if slices.Contains(is, false) {
			c.Failf("k-IS n=%d k=%d: a node found no independent set on a planted yes-instance", n, k)
		}
		t.Row(Int(n), Int(vc), Int(ir), Int(planted(c, n, workload.KDS(k), uint64(n)+2)))
	}
}

// runEntry runs one catalogue entry on an n-node clique at the entry's
// word budget.
func runEntry(c *Ctx, n int, alg workload.Algorithm, seed uint64) workload.Run {
	return c.RunWorkloads(n, alg.WPP, workload.Spec{Alg: alg, Seed: seed})[0]
}

// planted runs a k-DS or k-VC entry on its planted yes-instance and
// returns the rounds. RunWorkloads has run the instance's Check, so
// every node agreed and a witness is valid; planted also fails the
// experiment unless the search found one.
func planted(c *Ctx, n int, alg workload.Algorithm, seed uint64) int {
	r := runEntry(c, n, alg, seed)
	if r.Answer() != true {
		c.Failf("%s n=%d seed=%d: no solution on a planted yes-instance", alg.Title, n, seed)
	}
	return r.Result.Stats.Rounds
}

// kVC runs KVC(k) on its planted instance and fails the experiment
// unless it took exactly vcover.Find's 1 + min(k, ⌈⌈n/64⌉/wpp⌉) rounds.
func kVC(c *Ctx, n, k int, seed uint64) int {
	alg := workload.KVC(k)
	r := planted(c, n, alg, seed)
	if want := 1 + min(k, ((n+63)/64+alg.WPP-1)/alg.WPP); r != want {
		c.Failf("k-VC n=%d k=%d: %d rounds, want 1 + min(k, ceil(ceil(n/64)/wpp)) = %d", n, k, r, want)
	}
	return r
}

// forest runs an MST-family entry at seed n and fails the experiment
// unless node 0's forest weight is the Kruskal oracle's, which it
// returns.
func forest(c *Ctx, n int, alg workload.Algorithm) (workload.Run, int64) {
	r := runEntry(c, n, alg, uint64(n))
	wt, oracle := r.Answer().(int64), r.Oracle().(int64)
	if wt != oracle {
		c.Failf("%s n=%d: forest weight %d, oracle %d", alg.Name, n, wt, oracle)
	}
	return r, wt
}

// Extension — deterministic MST baseline (paper conclusions).
func expMST(c *Ctx) {
	t := c.Table("", "n", "rounds", "forest wt", "oracle wt")
	alg, _ := workload.Get("mst")
	for _, n := range c.Sizes([]int{16, 64, 256}, []int{16, 32}) {
		r, wt := forest(c, n, alg)
		t.Row(Int(n), Int(r.Result.Stats.Rounds), Int64(wt), Int64(wt))
	}
	c.Notef("the conclusions' randomized-gap example: randomized algorithms do O(1);")
	c.Notef("this deterministic baseline needs Theta(log n) Boruvka phases")
}

// Extension — the randomized side of the MST gap: constant seed phases
// plus one AGM cut-sketch exchange, so the round count stays flat while
// Boruvka's grows with log n. Every forest weight is checked against
// the Kruskal oracle.
func expMSTSketch(c *Ctx) {
	t := c.Table("", "n", "rounds", "boruvka rounds", "samples ok", "forest wt", "oracle wt")
	sketch, _ := workload.Get("mst-sketch")
	boruvka, _ := workload.Get("mst")
	var maxRounds int
	for _, n := range c.Sizes([]int{16, 64, 128, 256}, []int{16, 32, 64}) {
		r, wt := forest(c, n, sketch)
		st := r.Telemetry().(mst.SketchStats)
		maxRounds = max(maxRounds, r.Result.Stats.Rounds)
		t.Row(Int(n), Int(r.Result.Stats.Rounds), Int(runEntry(c, n, boruvka, uint64(n)).Result.Stats.Rounds),
			Strf("%d/%d", st.SampleOK, st.SampleTotal), Int64(wt), Int64(wt))
	}
	c.Metric("sketch MST max rounds", float64(maxRounds), "rounds")
	c.Notef("rounds stay single-digit across the sweep while Boruvka grows with log n;")
	c.Notef("the samples column is cut-sketch recovery telemetry (misses fall back to exact exchange)")
}

// Extension — the message-frugal MST: total words moved are o(m) on
// dense inputs because components stop probing as soon as their
// XOR-merged cut fingerprint empties.
func expMSTSparse(c *Ctx) {
	t := c.Table("", "n", "m", "words", "words/m", "phases", "forest wt", "oracle wt")
	alg := workload.MSTSparse(0.6)
	for _, n := range c.Sizes([]int{48, 96, 192}, []int{24, 48}) {
		r, wt := forest(c, n, alg)
		tel := r.Telemetry().(workload.SparseTelemetry)
		ratio := float64(r.Result.Stats.WordsSent) / float64(tel.Edges)
		t.Row(Int(n), Int(tel.Edges), Int64(r.Result.Stats.WordsSent),
			Float(ratio, "%.3f"), Int(tel.Phases), Int64(wt), Int64(wt))
		c.Metric(fmt.Sprintf("sparse MST words/m at n=%d", n), ratio, "ratio")
	}
	c.Notef("words/m falls as n grows: per-phase traffic is O(active components),")
	c.Notef("not O(m), and cut fingerprints silence finished components")
}

// E13 — substrate validation.
func expSubstrates(c *Ctx) {
	rt := c.Table("routing rounds vs per-node load (n=32, uniform destinations)", "load", "rounds")
	for _, load := range c.Sizes([]int{8, 16, 32, 64}, []int{8, 16}) {
		r := c.Rounds(32, 4, func(nd *clique.Node) {
			recs := make([]uint64, 0, 2*load)
			for i := 0; i < load; i++ {
				recs = append(recs, uint64((nd.ID()+i+1)%32), uint64(i))
			}
			comm.Route(nd, recs, 1, 9)
		})
		rt.Row(Int(load), Int(r))
	}
	st := c.Table("sorting rounds vs keys/node (n=16, keys < n^2)", "keys/node", "rounds")
	for _, kn := range c.Sizes([]int{4, 8, 16}, []int{4, 8}) {
		r := c.Rounds(16, 4, func(nd *clique.Node) {
			keys := make([]uint64, kn)
			for i := range keys {
				keys[i] = uint64((nd.ID()*31 + i*17) % 256)
			}
			routing.Sort(nd, keys, 256)
		})
		st.Row(Int(kn), Int(r))
	}
	mt := c.Table("matrix multiplication, naive vs 3D", "n", "naive rounds", "3D rounds")
	naive, _ := workload.Get("boolmm-naive")
	td, _ := workload.Get("boolmm-3d")
	mmRounds := func(a workload.Algorithm, n int) Cell { return Int(runEntry(c, n, a, uint64(n)).Result.Stats.Rounds) }
	for _, n := range c.Sizes([]int{27, 64, 125, 216}, []int{8, 27}) {
		mt.Row(Int(n), mmRounds(naive, n), mmRounds(td, n))
	}
}

// Ablation — router choice on a skewed instance.
func expAblation(c *Ctx) {
	const n, L = 16, 96
	mk := func(balanced bool) int {
		return c.Rounds(n, 4, func(nd *clique.Node) {
			var recs []uint64
			if nd.ID() == 0 {
				recs = make([]uint64, 0, 2*L)
				for i := 0; i < L; i++ {
					recs = append(recs, 1, uint64(i))
				}
			}
			if balanced {
				comm.Route(nd, recs, 1, 5)
			} else {
				comm.RouteDirect(nd, recs, 1)
			}
		})
	}
	direct, balanced := mk(false), mk(true)
	c.Notef("node 0 sends %d packets to node 1 (n=%d): direct %d rounds, balanced %d rounds",
		L, n, direct, balanced)
	c.Metric("direct rounds", float64(direct), "rounds")
	c.Metric("balanced rounds", float64(balanced), "rounds")
}
