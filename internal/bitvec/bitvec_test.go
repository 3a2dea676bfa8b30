package bitvec

import (
	"math/rand/v2"
	"testing"

	"repro/internal/engine"
)

// NewMatrix returns a zeroed rows x bits matrix over fresh storage.
func NewMatrix(rows, bits int) *Matrix {
	return &Matrix{R: rows, Bits: bits, W: Words(bits), data: make([]uint64, rows*Words(bits))}
}

// refRow is the one-bool-per-entry reference the packed operations are
// checked against.
type refRow []bool

func randomPair(bits int, density float64, seed uint64) (Row, refRow) {
	rng := rand.New(rand.NewPCG(seed, 11))
	r := NewRow(bits)
	ref := make(refRow, bits)
	for i := 0; i < bits; i++ {
		if rng.Float64() < density {
			r.Set(i)
			ref[i] = true
		}
	}
	return r, ref
}

func TestRowBasics(t *testing.T) {
	for _, bits := range []int{1, 7, 63, 64, 65, 130, 200} {
		r, ref := randomPair(bits, 0.4, uint64(bits))
		count := 0
		for i, b := range ref {
			if r.Get(i) != b {
				t.Fatalf("bits=%d: Get(%d) = %v, want %v", bits, i, r.Get(i), b)
			}
			if b {
				count++
			}
		}
		if r.OnesCount() != count {
			t.Errorf("bits=%d: OnesCount = %d, want %d", bits, r.OnesCount(), count)
		}
		var seen []int
		r.Each(func(i int) { seen = append(seen, i) })
		if len(seen) != count {
			t.Errorf("bits=%d: Each visited %d bits, want %d", bits, len(seen), count)
		}
		for _, i := range seen {
			if !ref[i] {
				t.Errorf("bits=%d: Each visited clear bit %d", bits, i)
			}
		}
		if len(seen) > 0 {
			r.Clear(seen[0])
			if r.Get(seen[0]) || r.OnesCount() != count-1 {
				t.Error("Clear did not clear exactly one bit")
			}
		}
	}
}

func TestRowSetOps(t *testing.T) {
	const bits = 150
	a, refA := randomPair(bits, 0.5, 1)
	b, refB := randomPair(bits, 0.5, 2)

	or := NewRow(bits)
	copy(or, a)
	or.Or(b)
	xor := NewRow(bits)
	copy(xor, a)
	xor.Xor(b)
	intersects := false
	for i := 0; i < bits; i++ {
		if or.Get(i) != (refA[i] || refB[i]) {
			t.Fatalf("Or bit %d wrong", i)
		}
		if xor.Get(i) != (refA[i] != refB[i]) {
			t.Fatalf("Xor bit %d wrong", i)
		}
		intersects = intersects || (refA[i] && refB[i])
	}
	if a.Intersects(b) != intersects {
		t.Error("Intersects disagrees with the reference rows")
	}
	xor.Xor(b)
	if !xor.Equal(a) {
		t.Error("Xor is not self-inverse")
	}
	if !a.Equal(a) {
		t.Error("row not Equal to itself")
	}
	if a.Equal(b) {
		t.Error("distinct random rows reported Equal")
	}
}

func TestWord64RoundTrip(t *testing.T) {
	const bits = 300
	r, ref := randomPair(bits, 0.5, 3)
	for _, off := range []int{0, 1, 63, 64, 65, 100, 250} {
		for _, n := range []int{0, 1, 17, 50, 64} {
			if off+n > bits {
				continue
			}
			w := r.Word64(off, n)
			for i := 0; i < n; i++ {
				if (w>>i)&1 == 1 != ref[off+i] {
					t.Fatalf("Word64(%d, %d) bit %d wrong", off, n, i)
				}
			}
			if n < 64 && w>>n != 0 {
				t.Fatalf("Word64(%d, %d) has bits above n", off, n)
			}
			// OrWord64 into a fresh row must reproduce exactly the bits.
			dst := NewRow(bits)
			dst.OrWord64(off, n, w)
			for i := 0; i < bits; i++ {
				want := i >= off && i < off+n && ref[i]
				if dst.Get(i) != want {
					t.Fatalf("OrWord64(%d, %d) bit %d wrong", off, n, i)
				}
			}
		}
	}
}

func TestExtractOrRangeRoundTrip(t *testing.T) {
	const bits = 333
	r, ref := randomPair(bits, 0.5, 4)
	for _, span := range [][2]int{{0, bits}, {0, 64}, {5, 70}, {63, 65}, {100, 290}, {64, 128}, {7, 7}} {
		lo, hi := span[0], span[1]
		dst := NewRow(hi - lo)
		r.ExtractInto(dst, lo, hi)
		for i := 0; i < hi-lo; i++ {
			if dst.Get(i) != ref[lo+i] {
				t.Fatalf("ExtractInto [%d,%d) bit %d wrong", lo, hi, i)
			}
		}
		back := NewRow(bits)
		back.OrRange(lo, dst, hi-lo)
		for i := 0; i < bits; i++ {
			want := i >= lo && i < hi && ref[i]
			if back.Get(i) != want {
				t.Fatalf("OrRange [%d,%d) bit %d wrong", lo, hi, i)
			}
		}
	}
}

func TestNextZero(t *testing.T) {
	r := NewRow(200)
	for i := 0; i < 200; i++ {
		r.Set(i)
	}
	if got := r.NextZero(0, 200); got != -1 {
		t.Errorf("full row NextZero = %d, want -1", got)
	}
	r.Clear(130)
	if got := r.NextZero(0, 200); got != 130 {
		t.Errorf("NextZero = %d, want 130", got)
	}
	if got := r.NextZero(131, 200); got != -1 {
		t.Errorf("NextZero after hole = %d, want -1", got)
	}
	if got := r.NextZero(0, 130); got != -1 {
		t.Errorf("NextZero below limit = %d, want -1", got)
	}
	r.Clear(64)
	if got := r.NextZero(10, 200); got != 64 {
		t.Errorf("NextZero = %d, want 64", got)
	}
}

func TestInt64Bridge(t *testing.T) {
	xs := []int64{0, 1, 0, -3, 7, 0, 0, 1, 0, 2}
	r := FromInt64s(xs)
	back := r.ToInt64s(len(xs))
	for i, x := range xs {
		want := int64(0)
		if x != 0 {
			want = 1
		}
		if back[i] != want {
			t.Errorf("bridge entry %d = %d, want %d", i, back[i], want)
		}
	}
}

// naiveMul is the per-entry reference boolean product.
func naiveMul(a, b [][]bool) [][]bool {
	n := len(a)
	m := len(b[0])
	c := make([][]bool, n)
	for i := range c {
		c[i] = make([]bool, m)
		for j := 0; j < m; j++ {
			for k := 0; k < len(b); k++ {
				if a[i][k] && b[k][j] {
					c[i][j] = true
					break
				}
			}
		}
	}
	return c
}

func randomBoolMatrix(rows, cols int, density float64, seed uint64) (*Matrix, [][]bool) {
	rng := rand.New(rand.NewPCG(seed, 23))
	m := NewMatrix(rows, cols)
	ref := make([][]bool, rows)
	for i := range ref {
		ref[i] = make([]bool, cols)
		for j := range ref[i] {
			if rng.Float64() < density {
				m.Row(i).Set(j)
				ref[i][j] = true
			}
		}
	}
	return m, ref
}

func TestMatrixMulAgainstReference(t *testing.T) {
	for _, size := range []int{1, 5, 64, 65, 100} {
		a, refA := randomBoolMatrix(size, size, 0.3, uint64(size))
		b, refB := randomBoolMatrix(size, size, 0.3, uint64(size)+1)
		c := NewMatrix(size, size)
		MulInto(a, b, c)
		want := naiveMul(refA, refB)
		for i := 0; i < size; i++ {
			for j := 0; j < size; j++ {
				if c.Row(i).Get(j) != want[i][j] {
					t.Fatalf("size %d: product entry (%d,%d) wrong", size, i, j)
				}
			}
		}
	}
}

func TestPooledScratchComesBackZeroed(t *testing.T) {
	r := GetRow(500)
	for i := 0; i < 500; i += 3 {
		r.Set(i)
	}
	PutRow(r)
	r2 := GetRow(321)
	if r2.OnesCount() != 0 {
		t.Error("pooled row not zeroed on reuse")
	}
	PutRow(r2)
	m := GetMatrix(10, 100)
	for i := 0; i < 10; i++ {
		if m.Row(i).OnesCount() != 0 {
			t.Fatal("pooled matrix not zeroed")
		}
		m.Row(i).Set(i)
	}
	PutMatrix(m)
}

func TestScratchPoolReuses(t *testing.T) {
	// Same size class must be served from the pool once warm: on the
	// first Get after a Put, or within scratchReuseCycles Put/Get cycles
	// under the race detector.
	var buf2 []uint64
	for cycle := 1; ; cycle++ {
		PutWords(GetWords(1 << 10))
		h0, _ := engine.ScratchStats()
		buf2 = GetWords(900) // same class (1024)
		h1, _ := engine.ScratchStats()
		if h1 == h0+1 {
			break
		}
		if cycle == scratchReuseCycles {
			t.Fatalf("scratch hit count %d, want %d (pool not reused in %d cycles)", h1, h0+1, cycle)
		}
		PutWords(buf2)
	}
	if len(buf2) != 900 {
		t.Errorf("pooled buffer has len %d, want 900", len(buf2))
	}
	for _, w := range buf2 {
		if w != 0 {
			t.Fatal("pooled scratch not zeroed")
		}
	}
	PutWords(buf2)
}

func BenchmarkMulRowInto(b *testing.B) {
	const n = 1024
	m, _ := randomBoolMatrix(n, n, 0.5, 7)
	aRow := m.Row(0)
	dst := NewRow(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulRowInto(aRow, m, dst)
	}
}
