//go:build !race

package bitvec

// scratchReuseCycles is one: without the race detector the first Get
// after a Put must be a pooled hit.
const scratchReuseCycles = 1
