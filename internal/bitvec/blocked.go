package bitvec

import "math/bits"

// Cache-blocked boolean product. The full product streams b in row
// bands of at most mulBlockWords words (32 KiB, an L1 data cache), so
// every band is multiplied against all of a while it is L1-hot, instead
// of sweeping all of b once per row.

// mulBlockWords is the right-operand working set per multiply band, in
// words: 4096 words = 32 KiB, sized to a typical L1d cache.
const mulBlockWords = 4096

// mulBlocked is the k-blocked boolean product behind MulInto: c |= a x b
// over bands of b rows sized to mulBlockWords. Row index bands are
// 64-aligned so each band corresponds to whole words of every a row;
// the extra band scans over a's rows cost one full row sweep in total
// (each a word is visited by exactly one band). The OR-accumulation is
// order-independent, so the result is bit-identical to the unblocked
// kernel.
func mulBlocked(a, b, c *Matrix) {
	for i := 0; i < a.R; i++ {
		c.Row(i).Zero()
	}
	kb := mulBlockWords / b.W
	if kb < WordBits {
		kb = WordBits
	}
	kb &^= WordBits - 1
	for k0 := 0; k0 < b.R; k0 += kb {
		k1 := min(k0+kb, b.R)
		for i := 0; i < a.R; i++ {
			row := a.Row(i)
			dst := c.Row(i)
			loW := k0 / WordBits
			hiW := min((k1+WordBits-1)/WordBits, len(row))
			for w := loW; w < hiW; w++ {
				word := row[w]
				for word != 0 {
					k := w*WordBits + bits.TrailingZeros64(word)
					word &= word - 1
					if k >= k1 {
						break
					}
					dst.Or(b.Row(k))
				}
			}
		}
	}
}
