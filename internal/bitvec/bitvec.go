package bitvec

import (
	"math/bits"

	"repro/internal/engine"
)

// WordBits is the number of matrix entries one packed word carries.
const WordBits = 64

// Words returns the number of words a row of `bits` bits occupies.
func Words(bits int) int { return (bits + WordBits - 1) / WordBits }

// Row is a dense bit vector, 64 bits per word, little-endian within
// each word (bit i lives in word i/64 at position i%64). It is layout-
// compatible with graph.Bitset and with the []uint64 payloads the
// simulator moves, so packed rows cross the wire without re-encoding.
type Row []uint64

// NewRow returns a zeroed row able to hold `bits` bits.
func NewRow(bits int) Row { return make(Row, Words(bits)) }

// Get reports bit i.
func (r Row) Get(i int) bool { return r[i/WordBits]&(1<<(i%WordBits)) != 0 }

// Set sets bit i.
func (r Row) Set(i int) { r[i/WordBits] |= 1 << (i % WordBits) }

// Clear clears bit i.
func (r Row) Clear(i int) { r[i/WordBits] &^= 1 << (i % WordBits) }

// Zero clears every word.
func (r Row) Zero() { clear(r) }

// Or folds o into r: r |= o. o may be shorter than r.
//
// The word loops of the two fold kernels (Or, Xor) are unrolled 4-wide
// — one 32-byte half cache line per step — with the destination
// pre-sliced to the source length so the unrolled body runs without
// per-word bounds checks.
func (r Row) Or(o Row) {
	d := r[:len(o)]
	i := 0
	for ; i+4 <= len(o); i += 4 {
		d[i] |= o[i]
		d[i+1] |= o[i+1]
		d[i+2] |= o[i+2]
		d[i+3] |= o[i+3]
	}
	for ; i < len(o); i++ {
		d[i] |= o[i]
	}
}

// Xor folds o into r symmetric-difference-wise: r ^= o. o may be
// shorter than r. XOR is the linearity kernel of the sketch plane
// (internal/sketch): sketches merge by word-parallel XOR, so the merge
// of two sketches is bit-identically the sketch of the symmetric
// difference of their edge sets.
func (r Row) Xor(o Row) {
	d := r[:len(o)]
	i := 0
	for ; i+4 <= len(o); i += 4 {
		d[i] ^= o[i]
		d[i+1] ^= o[i+1]
		d[i+2] ^= o[i+2]
		d[i+3] ^= o[i+3]
	}
	for ; i < len(o); i++ {
		d[i] ^= o[i]
	}
}

// OnesCount returns the number of set bits.
func (r Row) OnesCount() int {
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(r); i += 4 {
		c0 += bits.OnesCount64(r[i])
		c1 += bits.OnesCount64(r[i+1])
		c2 += bits.OnesCount64(r[i+2])
		c3 += bits.OnesCount64(r[i+3])
	}
	for ; i < len(r); i++ {
		c0 += bits.OnesCount64(r[i])
	}
	return c0 + c1 + c2 + c3
}

// Intersects reports whether a and b share a set bit, short-circuiting
// on the first overlapping word.
func (r Row) Intersects(o Row) bool {
	m := min(len(r), len(o))
	for i := 0; i < m; i++ {
		if r[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether r and o hold identical words.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i, w := range r {
		if w != o[i] {
			return false
		}
	}
	return true
}

// Each calls f for every set bit in increasing order.
func (r Row) Each(f func(i int)) {
	for w, word := range r {
		for word != 0 {
			i := bits.TrailingZeros64(word)
			f(w*WordBits + i)
			word &= word - 1
		}
	}
}

// NextZero returns the smallest clear bit index in [from, limit), or -1
// if every bit in the range is set. It scans a word at a time.
func (r Row) NextZero(from, limit int) int {
	for i := from; i < limit; {
		w := ^r[i/WordBits] >> (i % WordBits)
		if w != 0 {
			z := i + bits.TrailingZeros64(w)
			if z < limit {
				return z
			}
			return -1
		}
		i += WordBits - i%WordBits
	}
	return -1
}

// Word64 extracts up to 64 bits starting at bit offset off: the
// returned word holds bits [off, off+n) at positions 0..n-1 with the
// rest zero. n must be in [0, 64].
func (r Row) Word64(off, n int) uint64 {
	if n == 0 {
		return 0
	}
	w, sh := off/WordBits, off%WordBits
	out := r[w] >> sh
	if sh != 0 && w+1 < len(r) {
		out |= r[w+1] << (WordBits - sh)
	}
	if n < WordBits {
		out &= 1<<n - 1
	}
	return out
}

// OrWord64 folds up to 64 bits into r starting at bit offset off: bit
// position i of v lands on bit off+i. Bits of v at positions >= n must
// be zero. n must be in [0, 64].
func (r Row) OrWord64(off, n int, v uint64) {
	if n == 0 || v == 0 {
		return
	}
	w, sh := off/WordBits, off%WordBits
	r[w] |= v << sh
	if sh != 0 && sh+n > WordBits {
		r[w+1] |= v >> (WordBits - sh)
	}
}

// OrRange folds bits [0, n) of src into r starting at bit offset off —
// the inverse of ExtractInto, used to place received segments back
// into a full-width row.
func (r Row) OrRange(off int, src Row, n int) {
	for o := 0; o < n; o += WordBits {
		c := min(WordBits, n-o)
		r.OrWord64(off+o, c, src.Word64(o, c))
	}
}

// ExtractInto copies bits [lo, hi) of r to positions 0..hi-lo of dst,
// zeroing the rest of dst. dst must hold Words(hi-lo) words.
func (r Row) ExtractInto(dst Row, lo, hi int) {
	dst.Zero()
	for off := lo; off < hi; off += WordBits {
		n := min(WordBits, hi-off)
		dst.OrWord64(off-lo, n, r.Word64(off, n))
	}
}

// FromInt64s packs a scalar 0/1-semantics row: any nonzero entry
// becomes a set bit. This is the bridge from the unpacked Semiring
// representation (one int64 per entry) to the packed plane.
func FromInt64s(xs []int64) Row {
	r := NewRow(len(xs))
	for i, x := range xs {
		if x != 0 {
			r.Set(i)
		}
	}
	return r
}

// ToInt64s unpacks the first n bits to a scalar row of 0/1 entries,
// the inverse bridge of FromInt64s.
func (r Row) ToInt64s(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		if r.Get(i) {
			out[i] = 1
		}
	}
	return out
}

// Matrix is a dense bit matrix: R rows of Bits bits each, stored
// row-major over one contiguous word buffer (W words per row).
type Matrix struct {
	R, Bits, W int
	data       []uint64
}

// Row returns row i as a Row aliasing the matrix storage.
func (m *Matrix) Row(i int) Row { return Row(m.data[i*m.W : (i+1)*m.W]) }

// Zero clears the whole matrix.
func (m *Matrix) Zero() { clear(m.data) }

// MulRowInto computes one row of the boolean product dst = aRow x b:
// dst = OR over every set bit k of aRow of b.Row(k). dst must hold
// b.W words and is zeroed first. Each OR step combines 64 product
// entries, the word-parallel inner loop of the packed plane.
func MulRowInto(aRow Row, b *Matrix, dst Row) {
	dst.Zero()
	aRow.Each(func(k int) {
		if k < b.R {
			dst.Or(b.Row(k))
		}
	})
}

// MulInto computes the full boolean product c = a x b with the
// word-parallel row kernel. c must be an a.R x b.Bits matrix. When b is
// too large for the L1 working-set budget, the product is k-blocked
// (see blocked.go): each band of b rows is streamed against every a row
// while it is cache-hot, instead of sweeping all of b once per row.
func MulInto(a, b, c *Matrix) {
	if b.R*b.W <= mulBlockWords {
		for i := 0; i < a.R; i++ {
			MulRowInto(a.Row(i), b, c.Row(i))
		}
		return
	}
	mulBlocked(a, b, c)
}

// GetRow borrows a zeroed row of `bits` bits from the engine word-
// scratch pool; retire it with PutRow.
func GetRow(bits int) Row { return Row(engine.GetScratch(Words(bits))) }

// PutRow retires a pooled row. The row must not be used afterwards.
func PutRow(r Row) { engine.PutScratch(r) }

// GetWords borrows a zeroed k-word buffer from the engine scratch
// pool — the backing store for tables of rows built in place.
func GetWords(k int) []uint64 { return engine.GetScratch(k) }

// PutWords retires a buffer borrowed with GetWords.
func PutWords(buf []uint64) { engine.PutScratch(buf) }

// GetMatrix borrows a zeroed rows x bits matrix over pooled storage;
// retire it with PutMatrix.
func GetMatrix(rows, bits int) *Matrix {
	w := Words(bits)
	return &Matrix{R: rows, Bits: bits, W: w, data: engine.GetScratch(rows * w)}
}

// PutMatrix retires a pooled matrix (and its storage). The matrix and
// every Row still aliasing it must not be used afterwards.
func PutMatrix(m *Matrix) { engine.PutScratch(m.data) }
