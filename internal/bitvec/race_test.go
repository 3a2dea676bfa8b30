//go:build race

package bitvec

// scratchReuseCycles bounds the Put/Get cycles TestScratchPoolReuses
// waits for a pooled hit: under the race detector sync.Pool drops a
// random share of Puts, so one cycle can miss; 64 all missing is
// vanishingly unlikely.
const scratchReuseCycles = 64
