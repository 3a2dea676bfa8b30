// Package hierarchy implements Section 6.2 of the paper: the
// constant-round decision hierarchy (Sigma_k, Pi_k) of the congested
// clique, the analogue of the polynomial hierarchy obtained by letting
// the nodes alternate existential and universal label quantifiers.
//
// Two variants matter: the *unlimited* hierarchy, which Theorem 7 shows
// collapses to the second level (every decision problem is in
// Sigma_2 = Pi_2, via the guess-the-whole-graph protocol implemented
// here as SigmaTwoUniversal), and the *logarithmic* hierarchy, whose
// labels are capped at O(n log n) bits per node and which, by Theorem 8,
// does not contain all problems: the guess labels need n^2 bits, past
// that cap (GuessBits). The counting argument behind Theorem 8 lives in
// package counting. The definition itself, exhaustive evaluation of a
// quantified formula on micro instances, is the ground truth of the
// package's tests.
package hierarchy
