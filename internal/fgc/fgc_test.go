package fgc

import (
	"math"
	"strings"
	"testing"
)

func TestFigure1Validates(t *testing.T) {
	for _, k := range []int{3, 4, 5} {
		m := Figure1(k)
		if issues := m.Validate(); len(issues) != 0 {
			t.Errorf("k=%d: %v", k, issues)
		}
	}
}

func TestImpliedBoundsRespectFigureArrows(t *testing.T) {
	m := Figure1(3)
	lit := m.ImpliedUpper(false)
	impl := m.ImpliedUpper(true)
	for _, r := range m.Relations {
		if lit[r.Lo] > lit[r.Hi]+1e-9 {
			t.Errorf("literature: delta(%s)=%.4f > delta(%s)=%.4f violates %q",
				r.Lo, lit[r.Lo], r.Hi, lit[r.Hi], r.Why)
		}
		if impl[r.Lo] > impl[r.Hi]+1e-9 {
			t.Errorf("implemented: delta(%s)=%.4f > delta(%s)=%.4f violates %q",
				r.Lo, impl[r.Lo], r.Hi, impl[r.Hi], r.Why)
		}
	}
}

func TestKeyBoundsFromThePaper(t *testing.T) {
	m := Figure1(3)
	cases := []struct {
		key  string
		want float64
	}{
		{"k-ds", 1 - 1.0/3},      // Theorem 9
		{"k-is", 1 - 2.0/3},      // Dolev et al. [16]
		{"k-vc", 0},              // Theorem 11
		{"ring-mm", 1 - 2/omega}, // Censor-Hillel et al. [10]
		{"semiring-mm", 1.0 / 3}, // [10]
		{"apsp-uw-d", 0.2096},    // Le Gall [42]
		{"sssp-w-ud-1eps", 0},    // Becker et al. [5]
	}
	for _, c := range cases {
		p, ok := m.Get(c.key)
		if !ok {
			t.Fatalf("missing problem %s", c.key)
		}
		if math.Abs(p.LitUpper-c.want) > 1e-9 {
			t.Errorf("%s: LitUpper = %.4f, want %.4f", c.key, p.LitUpper, c.want)
		}
	}
}

func TestTheorem10ArrowPresent(t *testing.T) {
	m := Figure1(4)
	found := false
	for _, r := range m.Relations {
		if r.Lo == "k-is" && r.Hi == "k-ds" {
			found = true
			if !strings.Contains(r.Why, "Theorem 10") {
				t.Error("k-IS <= k-DS arrow not attributed to Theorem 10")
			}
		}
	}
	if !found {
		t.Error("the paper's headline reduction arrow is missing")
	}
	// And it is consistent: 1 - 2/k <= 1 - 1/k.
	kis, _ := m.Get("k-is")
	kds, _ := m.Get("k-ds")
	if kis.LitUpper > kds.LitUpper {
		t.Error("k-IS bound above k-DS bound; arrow direction confused")
	}
}

func TestImpliedUpperPropagates(t *testing.T) {
	m := &Map{
		Problems: []Problem{
			{Key: "a", LitUpper: 1, ImplUpper: 1},
			{Key: "b", LitUpper: 0.5, ImplUpper: 0.5},
			{Key: "c", LitUpper: 0.25, ImplUpper: math.Inf(1)},
		},
		Relations: []Relation{
			{Lo: "a", Hi: "b"}, // delta(a) <= delta(b)
			{Lo: "b", Hi: "c"},
		},
	}
	lit := m.ImpliedUpper(false)
	if lit["a"] != 0.25 || lit["b"] != 0.25 {
		t.Errorf("literature propagation wrong: %v", lit)
	}
	impl := m.ImpliedUpper(true)
	if impl["a"] != 0.5 {
		t.Errorf("implemented propagation should stop at b's 0.5: %v", impl)
	}
}

func TestValidateCatchesBrokenMaps(t *testing.T) {
	m := &Map{
		Problems:  []Problem{{Key: "a"}, {Key: "a"}},
		Relations: []Relation{{Lo: "a", Hi: "zz"}, {Lo: "a", Hi: "a"}},
	}
	issues := m.Validate()
	if len(issues) < 3 {
		t.Errorf("expected duplicate/unknown/self-loop issues, got %v", issues)
	}
}

func TestFitExponent(t *testing.T) {
	// Perfect power law rounds = 2 n^{1/3}.
	var ns, rounds []int
	for _, n := range []int{64, 216, 512, 1000} {
		ns = append(ns, n)
		rounds = append(rounds, int(2*math.Cbrt(float64(n))))
	}
	got := FitExponent(ns, rounds)
	if math.Abs(got-1.0/3) > 0.05 {
		t.Errorf("fit = %.4f, want ~0.333", got)
	}
	// Linear scaling fits delta = 1.
	ns, rounds = nil, nil
	for _, n := range []int{32, 64, 128, 256} {
		ns = append(ns, n)
		rounds = append(rounds, n/4)
	}
	if got := FitExponent(ns, rounds); math.Abs(got-1) > 0.05 {
		t.Errorf("fit = %.4f, want ~1", got)
	}
	if !math.IsNaN(FitExponent([]int{3}, []int{4})) {
		t.Error("single point should not fit")
	}
}

func TestDOTContainsAllNodes(t *testing.T) {
	m := Figure1(3)
	dot := m.DOT()
	for _, p := range m.Problems {
		if !strings.Contains(dot, p.Key) {
			t.Errorf("DOT output missing %s", p.Key)
		}
	}
	if !strings.Contains(dot, "digraph") {
		t.Error("not a digraph")
	}
}
