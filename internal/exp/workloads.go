package exp

import (
	"fmt"

	"repro/internal/clique"
	"repro/internal/workload"
)

// Workload is one simulated algorithm on a generated instance,
// parameterised by n. The Figure 1 experiment draws its probe set from
// this slice; each probe is an internal/workload entry seeded by n, the
// instance the root BenchmarkWorkloads family benchmarks, so the report
// and the benchmarks cannot drift apart.
type Workload struct {
	// Key is the fine-grained map key ("" when the problem has no
	// Figure 1 entry to check against).
	Key string
	// Name is the display name used in the E1 table.
	Name string
	// WPP is the per-pair word budget the workload is run with.
	WPP int
	// Make builds the instance for a given n and returns the node
	// program. Instance generation is deterministic in n.
	Make func(n int) clique.NodeFunc
}

// fig1 is the E1 probe set in table order: each row names its
// internal/workload catalogue entry, which supplies WPP and the node
// program, seeded by n.
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

// Fig1Workloads returns the E1 probe set in table order.
func Fig1Workloads() []Workload {
	ws := make([]Workload, len(fig1))
	for i, r := range fig1 {
		alg, ok := workload.Get(r.alg)
		if !ok {
			panic(fmt.Sprintf("exp: Figure 1 row %q names unknown workload %q", r.name, r.alg))
		}
		ws[i] = Workload{Key: r.key, Name: r.name, WPP: alg.WPP,
			Make: func(n int) clique.NodeFunc { return alg.Make(n, uint64(n)) }}
	}
	return ws
}
