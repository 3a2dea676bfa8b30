package partition

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestRootK(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{27, 3, 3}, {26, 3, 2}, {64, 3, 4}, {100, 2, 10}, {99, 2, 9},
		{16, 4, 2}, {15, 4, 1}, {7, 1, 7}, {1, 3, 1},
	}
	for _, c := range cases {
		if got := rootK(c.n, c.k); got != c.want {
			t.Errorf("rootK(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestSchemeInvariants(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := 1 + int(nRaw%60)
		k := 1 + int(kRaw%4)
		s := New(n, k)
		// p^k <= n: every label fits on a node.
		if s.NumLabels() > n {
			return false
		}
		// Parts cover 0..n-1 and are disjoint.
		seen := make([]int, n)
		for t := 0; t < s.P; t++ {
			lo, hi := s.PartBounds(t)
			for v := lo; v < hi; v++ {
				seen[v]++
				if s.PartOf(v) != t {
					return false
				}
			}
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestLabelRoundTrip(t *testing.T) {
	s := New(30, 3) // p = 3, 27 labels
	if s.P != 3 || s.NumLabels() != 27 {
		t.Fatalf("scheme = %+v", s)
	}
	for v := 0; v < s.NumLabels(); v++ {
		lbl := s.Label(v)
		if lbl == nil {
			t.Fatalf("node %d unlabelled", v)
		}
		if got := s.NodeForLabel(lbl); got != v {
			t.Errorf("label round trip: %d -> %v -> %d", v, lbl, got)
		}
	}
	for v := s.NumLabels(); v < s.N; v++ {
		if s.Label(v) != nil {
			t.Errorf("node %d should be unlabelled", v)
		}
	}
}

func TestEveryLabelAssigned(t *testing.T) {
	// The paper requires every possible label to be assigned to some
	// node; enumerate all tuples and look them up.
	s := New(20, 2) // p = 4, 16 labels
	var rec func(lbl []int)
	count := 0
	rec = func(lbl []int) {
		if len(lbl) == s.K {
			v := s.NodeForLabel(lbl)
			if v < 0 || v >= s.N {
				t.Fatalf("label %v maps to bad node %d", lbl, v)
			}
			count++
			return
		}
		for d := 0; d < s.P; d++ {
			rec(append(lbl, d))
		}
	}
	rec(nil)
	if count != s.NumLabels() {
		t.Fatalf("enumerated %d labels, want %d", count, s.NumLabels())
	}
}

func TestUnionAndInUnion(t *testing.T) {
	s := New(27, 3)
	for v := 0; v < s.NumLabels(); v++ {
		union := s.Union(v)
		inU := make(map[int]bool, len(union))
		for _, u := range union {
			inU[u] = true
		}
		for u := 0; u < s.N; u++ {
			if s.InUnion(v, u) != inU[u] {
				t.Fatalf("InUnion(%d, %d) = %v disagrees with Union", v, u, s.InUnion(v, u))
			}
		}
		// Union size is at most k * partSize.
		if len(union) > s.K*s.Size {
			t.Fatalf("union of %d has %d vertices", v, len(union))
		}
	}
}

func TestEveryKSubsetCovered(t *testing.T) {
	// Core completeness property: every k-subset of vertices lies inside
	// S_v for some labelled node v.
	s := New(18, 2) // p = 4
	for a := 0; a < s.N; a++ {
		for b := a + 1; b < s.N; b++ {
			lbl := []int{s.PartOf(a), s.PartOf(b)}
			v := s.NodeForLabel(lbl)
			if !s.InUnion(v, a) || !s.InUnion(v, b) {
				t.Fatalf("pair {%d,%d} not inside union of node %d", a, b, v)
			}
		}
	}
}

func TestDegenerateK1(t *testing.T) {
	s := New(10, 1)
	if s.P != 10 || s.Size != 1 {
		t.Fatalf("k=1 scheme: %+v", s)
	}
	for v := 0; v < 10; v++ {
		lbl := s.Label(v)
		if len(lbl) != 1 || lbl[0] != v {
			t.Errorf("k=1 label of %d = %v", v, lbl)
		}
	}
}

func TestInUnionMatchesLabelDigits(t *testing.T) {
	// InUnion reads the label's base-P digits in place; it must agree
	// with the materialised Label on every (n, k) shape, unlabelled
	// nodes included.
	for n := 1; n <= 70; n++ {
		for k := 1; k <= 4; k++ {
			s := New(n, k)
			for v := 0; v < n; v++ {
				lbl := s.Label(v)
				for u := 0; u < n; u++ {
					want := slices.Contains(lbl, s.PartOf(u))
					if got := s.InUnion(v, u); got != want {
						t.Fatalf("n=%d k=%d: InUnion(%d, %d) = %v, label %v says %v", n, k, v, u, got, lbl, want)
					}
				}
			}
		}
	}
}

func TestInUnionAllocatesNothing(t *testing.T) {
	s := New(216, 3)
	v := s.NodeForLabel([]int{5, 0, 3})
	if allocs := testing.AllocsPerRun(100, func() {
		for u := 0; u < s.N; u++ {
			s.InUnion(v, u)
		}
	}); allocs != 0 {
		t.Errorf("InUnion sweep allocated %.1f objects, want 0", allocs)
	}
}

func TestUnionInLabelOrder(t *testing.T) {
	// Union lists parts in label order, not sorted: label (2, 0, 1)
	// yields part 2 first. Witnesses depend on this order.
	s := New(27, 3) // p = 3, parts of 9
	got := s.Union(s.NodeForLabel([]int{2, 0, 1}))
	var want []int
	for _, t := range []int{2, 0, 1} {
		lo, hi := s.PartBounds(t)
		for u := lo; u < hi; u++ {
			want = append(want, u)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("Union of label (2,0,1) = %v, want %v", got, want)
	}
	// A repeated part contributes once, at its first occurrence.
	got = s.Union(s.NodeForLabel([]int{1, 0, 1}))
	if len(got) != 18 || got[0] != 9 || got[9] != 0 {
		t.Errorf("Union of label (1,0,1) = %v, want part 1 then part 0", got)
	}
}
