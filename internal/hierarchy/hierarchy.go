package hierarchy

import (
	"repro/internal/clique"
	"repro/internal/graph"
)

// KLabelAlgorithm is a constant-round algorithm taking k labellings
// (Section 6.2): labels[i] is this node's level-i label.
type KLabelAlgorithm func(nd clique.Endpoint, row graph.Bitset, labels [][]uint64) bool
