// Package mst implements minimum spanning forests in the congested
// clique via Borůvka phases: O(log n) rounds deterministically. The
// paper's conclusions single out MST as the problem where randomized
// congested clique algorithms (Lotker et al. [45] at O(log log n),
// Ghaffari-Parter [25] at O(log* n), Jurdziński-Nowicki at O(1))
// dramatically beat known deterministic bounds; this package provides
// the deterministic baseline those results improve on, rounding out the
// repository's coverage of the model's classic problems.
//
// Each Borůvka phase costs two broadcast rounds: every node announces
// the minimum-weight edge leaving its current component (everyone can
// compute component ids locally because everyone has seen all prior
// announcements), all nodes apply the same merges, and the number of
// components at least halves. The merge, SketchFind's final replay and
// the forest sort are functions of words every node holds, so they run
// through clique.Replicated: once per run on the lockstep backend, at
// every node on the goroutine reference backend. The sorts pack each
// edge into one (W, U, V) uint64 key when it fits. SparseFind's
// proposals come from a per-node cursor over the incident edges sorted
// once by (W, id), so a node's proposals cost O(deg) over a whole run.
package mst
