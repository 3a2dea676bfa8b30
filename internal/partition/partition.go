package partition

import "fmt"

// Scheme is the globally known partition and labelling for parameter k.
// All nodes compute the same Scheme locally from (n, k); no communication
// is needed to agree on it.
type Scheme struct {
	N int // number of nodes
	K int // tuple length (the k in k-IS / k-DS)
	P int // number of parts, floor(N^{1/K})
	// Size is the part size ceil(N/P); the last part may be smaller.
	Size int
}

// New computes the scheme for an n-node clique and parameter k >= 1.
func New(n, k int) Scheme {
	if n < 1 || k < 1 {
		panic(fmt.Sprintf("partition: invalid scheme n=%d k=%d", n, k))
	}
	p := rootK(n, k)
	return Scheme{N: n, K: k, P: p, Size: (n + p - 1) / p}
}

// rootK returns floor(n^{1/k}).
func rootK(n, k int) int {
	if k == 1 {
		return n
	}
	r := 1
	for pow(r+1, k) <= n {
		r++
	}
	return r
}

// pow computes b^e with overflow saturation (inputs here are tiny).
func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
		if out < 0 || out > 1<<40 {
			return 1 << 40
		}
	}
	return out
}

// NumLabels returns p^k, the number of distinct labels; it never exceeds
// N, so each label lands on a distinct node.
func (s Scheme) NumLabels() int { return pow(s.P, s.K) }

// PartOf returns the part index of vertex v.
func (s Scheme) PartOf(v int) int {
	t := v / s.Size
	if t >= s.P {
		t = s.P - 1
	}
	return t
}

// PartBounds returns the half-open vertex range of part t. The final
// part absorbs the remainder so that parts cover all of 0..n-1.
func (s Scheme) PartBounds(t int) (lo, hi int) {
	lo = t * s.Size
	hi = lo + s.Size
	if t == s.P-1 {
		hi = s.N
	}
	if hi > s.N {
		hi = s.N
	}
	if lo > s.N {
		lo = s.N
	}
	return lo, hi
}

// Label returns node v's label as a k-tuple of part indices, or nil if
// v >= p^k (such nodes carry no label and only assist with routing).
func (s Scheme) Label(v int) []int {
	if v >= s.NumLabels() {
		return nil
	}
	lbl := make([]int, s.K)
	for i := s.K - 1; i >= 0; i-- {
		lbl[i] = v % s.P
		v /= s.P
	}
	return lbl
}

// NodeForLabel returns the node assigned the given label tuple.
func (s Scheme) NodeForLabel(lbl []int) int {
	if len(lbl) != s.K {
		panic(fmt.Sprintf("partition: label length %d, want %d", len(lbl), s.K))
	}
	id := 0
	for _, d := range lbl {
		if d < 0 || d >= s.P {
			panic(fmt.Sprintf("partition: label digit %d out of [0,%d)", d, s.P))
		}
		id = id*s.P + d
	}
	return id
}

// Union returns S_v for a labelled node v: the parts named by v's label,
// in label order, each part's vertices ascending; a repeated part name
// contributes only at its first occurrence. The result is sorted only
// when the label's distinct digits are: label (2, 0, 1) yields part 2
// first. Returns nil for unlabelled nodes.
func (s Scheme) Union(v int) []int {
	lbl := s.Label(v)
	if lbl == nil {
		return nil
	}
	seen := make(map[int]bool, s.K)
	var out []int
	for _, t := range lbl {
		if seen[t] {
			continue
		}
		seen[t] = true
		lo, hi := s.PartBounds(t)
		for u := lo; u < hi; u++ {
			out = append(out, u)
		}
	}
	return out
}

// InUnion reports whether vertex u belongs to S_v, without materialising
// the union or the label: it reads v's base-P label digits in place and
// allocates nothing.
func (s Scheme) InUnion(v, u int) bool {
	if v >= s.NumLabels() {
		return false
	}
	t := s.PartOf(u)
	for i := 0; i < s.K; i++ {
		if v%s.P == t {
			return true
		}
		v /= s.P
	}
	return false
}
