package counting

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestProtocolCountLog2(t *testing.T) {
	p := Params{N: 2, B: 1, L: 2, T: 1}
	// 2*1*4 + 2^(2+1*1*1) = 8 + 8 = 16.
	if got := p.ProtocolCountLog2(); got.Cmp(big.NewInt(16)) != 0 {
		t.Errorf("ProtocolCountLog2 = %v, want 16", got)
	}
	// Functions: 2^(2*2) = 16.
	if got := p.FunctionCountLog2(); got.Cmp(big.NewInt(16)) != 0 {
		t.Errorf("FunctionCountLog2 = %v, want 16", got)
	}
	// Equal counts: the coarse bound does NOT prove hardness here
	// (the exhaustive diagonalisation below still finds hard functions,
	// because the bound is loose).
	if p.HardFunctionExists() {
		t.Error("bound should not certify hardness at (2,1,2,1)")
	}
	// With more input bits the bound does certify hardness.
	p = Params{N: 2, B: 1, L: 4, T: 1}
	if !p.HardFunctionExists() {
		t.Error("bound should certify hardness at (2,1,4,1)")
	}
}

func TestNondeterministicGuessCosts(t *testing.T) {
	// Adding guess bits M shrinks the certified-hard region.
	base := Params{N: 8, B: 3, L: 30, T: 2}
	if !base.HardFunctionExists() {
		t.Fatal("base parameters should be hard")
	}
	withGuess := base
	withGuess.M = 8 * 30 // huge certificates
	if withGuess.HardFunctionExists() {
		t.Error("massive nondeterminism should defeat the counting bound")
	}
}

func TestMaxHardRoundsMonotone(t *testing.T) {
	n, b, L := 16, 4, 64
	tMax := MaxHardRounds(n, b, L)
	if tMax < 0 {
		t.Fatal("no hard rounds at all")
	}
	// Paper threshold: hardness holds whenever t < L/b - 1.
	if paper := L/b - 1; tMax < paper-1 {
		t.Errorf("MaxHardRounds = %d, paper threshold suggests about %d", tMax, paper)
	}
	if (Params{N: n, B: b, L: L, T: tMax}).HardFunctionExists() == false {
		t.Error("tMax not actually hard")
	}
	if (Params{N: n, B: b, L: L, T: tMax + 1}).HardFunctionExists() {
		t.Error("tMax+1 still hard; binary search wrong")
	}
	// Property: hardness is monotone in t.
	f := func(tRaw uint8) bool {
		tt := int(tRaw % 40)
		h1 := (Params{N: n, B: b, L: L, T: tt}).HardFunctionExists()
		h2 := (Params{N: n, B: b, L: L, T: tt + 1}).HardFunctionExists()
		return h1 || !h2 // h2 implies h1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTheorem2ParamsRegime(t *testing.T) {
	// For moderate n and T(n) = sqrt(n)-ish, the construction is valid.
	n := 1 << 12
	Tn := 32 // well below n / (4 log n) = 4096/48
	w := Theorem2Params(n, Tn)
	if !w.Valid {
		t.Fatalf("Theorem 2 witness invalid at n=%d T=%d: %+v", n, Tn, w)
	}
	if w.Upper != Tn || w.LowerExcluded != Tn/2 {
		t.Errorf("round budgets wrong: %+v", w)
	}
	// T(n) beyond n/(4 log n) breaks the premise.
	bad := Theorem2Params(64, 64)
	if bad.Valid {
		t.Error("witness accepted T(n) far above n / (4 log n)")
	}
}

func TestTheorem2HierarchyChain(t *testing.T) {
	// The hierarchy-theorem picture: for fixed n, larger T(n) gives
	// languages needing more rounds; every T in a doubling chain yields
	// a valid witness, so there are problems at all these complexities.
	n := 1 << 14
	for Tn := 2; Tn*4*14 < n; Tn *= 2 {
		if w := Theorem2Params(n, Tn); !w.Valid {
			t.Errorf("no witness at n=%d T=%d", n, Tn)
		}
	}
}

func TestTheorem4Params(t *testing.T) {
	n := 1 << 12
	Tn := 32
	w := Theorem4Params(n, Tn)
	if !w.Valid {
		t.Fatalf("Theorem 4 witness invalid: %+v", w)
	}
	if !w.PaperInequality {
		t.Error("paper inequality M + L + T(n-1)log n < (3/4) n L fails")
	}
	// The guess budget M = T n log n / 4 is what Theorem 3's normal
	// form costs: certificates of O(T n log n) bits.
	if w.Params.M != Tn*n*12/4 {
		t.Errorf("M = %d", w.Params.M)
	}
}

func TestTheorem8Params(t *testing.T) {
	// T(n) = omega(n) regime: at n = 256 pick T(n) = 2n. All levels
	// k <= T(n) must be counted out, here spot-checked for small k.
	n := 256
	Tn := 2 * n
	for _, k := range []int{1, 2, 3, 8} {
		w := Theorem8Params(n, k, Tn)
		if !w.Valid {
			t.Errorf("Theorem 8 witness invalid at k=%d: LH=%d RH=%d", k, w.PaperLH, w.PaperRH)
		}
	}
	// k beyond T(n) is out of scope.
	if Theorem8Params(n, Tn+1, Tn).Valid {
		t.Error("k > T(n) accepted")
	}
}

func TestDiagonaliseL1(t *testing.T) {
	res := Diagonalise(1)
	if res.TotalFunctions != 16 {
		t.Fatalf("TotalFunctions = %d", res.TotalFunctions)
	}
	// With L=1, t=1, b=1 each node can send its whole input: every
	// function should be realisable.
	if res.Realised != 16 || res.HardExists {
		t.Errorf("L=1: realised %d/16, hard=%v; full exchange should realise all",
			res.Realised, res.HardExists)
	}
}

func TestDiagonaliseL2(t *testing.T) {
	res := Diagonalise(2)
	if res.TotalFunctions != 65536 {
		t.Fatalf("TotalFunctions = %d", res.TotalFunctions)
	}
	if !res.HardExists {
		t.Fatal("no hard function found at L=2, t=1 — but one bit cannot convey two")
	}
	if res.Realised >= res.TotalFunctions {
		t.Fatalf("Realised = %d", res.Realised)
	}
	// The first hard function must genuinely have no protocol.
	if !VerifyHard(res.FirstHard, 2) {
		t.Errorf("first hard function %#x actually has a protocol", res.FirstHard)
	}
	// And everything lexicographically before it must be realisable:
	// spot-check the boundary.
	if res.FirstHard > 0 && VerifyHard(res.FirstHard-1, 2) {
		t.Errorf("function %#x just before the first hard one also lacks a protocol",
			res.FirstHard-1)
	}
	// Sanity: the realised count respects the Lemma 1 bound (log2 of
	// valid protocols <= bound exponent).
	if res.ValidProtocols == 0 {
		t.Error("no valid protocols at all")
	}
	t.Logf("L=2: %d/65536 functions realisable; first hard table %#04x (weight %d); %d valid protocols",
		res.Realised, res.FirstHard, HammingWeight(res.FirstHard), res.ValidProtocols)
}

func TestVerifyHardOnEasyFunctions(t *testing.T) {
	// Constant functions and single-variable projections are trivially
	// computable.
	easy := []uint64{
		0x0000, // constant 0
		0xffff, // constant 1
	}
	for _, tbl := range easy {
		if VerifyHard(tbl, 2) {
			t.Errorf("easy function %#x reported hard", tbl)
		}
	}
	// AND of all four bits: node 0 sends AND(x0), node 1 replies...
	// one round suffices: out_i = AND(own) & received. Computable.
	var andTable uint64
	for x0 := 0; x0 < 4; x0++ {
		for x1 := 0; x1 < 4; x1++ {
			if x0 == 3 && x1 == 3 {
				andTable |= 1 << (x0<<2 | x1)
			}
		}
	}
	if VerifyHard(andTable, 2) {
		t.Error("4-bit AND reported hard, but a 1-bit exchange computes it")
	}
}

// evalTable evaluates a truth table as a function of the two nodes'
// inputs.
func evalTable(table uint64, L, x0, x1 int) int {
	return int(table>>(x0<<L|x1)) & 1
}

func TestEvalTable(t *testing.T) {
	// Table for XOR of the low bits at L=2.
	var tbl uint64
	for x0 := 0; x0 < 4; x0++ {
		for x1 := 0; x1 < 4; x1++ {
			if (x0^x1)&1 == 1 {
				tbl |= 1 << (x0<<2 | x1)
			}
		}
	}
	for x0 := 0; x0 < 4; x0++ {
		for x1 := 0; x1 < 4; x1++ {
			if evalTable(tbl, 2, x0, x1) != (x0^x1)&1 {
				t.Fatalf("evalTable wrong at (%d,%d)", x0, x1)
			}
		}
	}
	// Low-bit XOR needs only one bit of communication: not hard.
	if VerifyHard(tbl, 2) {
		t.Error("low-bit XOR reported hard")
	}
}

// hardBig is Lemma 1's comparison in its defining big.Int form, the
// oracle HardFunctionExists' closed form is held to.
func hardBig(p Params) bool {
	return p.ProtocolCountLog2().Cmp(p.FunctionCountLog2()) < 0
}

// TestHardFunctionExistsMatchesBigInt pins the closed-form Lemma 1 check
// to the big.Int comparison over a grid of small classes, at the int64
// edges nL = 62, 63 and 64 (with exp just below, at and above nL and
// the 2bn² term straddling 2^nL − 2^exp), with b = 0, and on classes
// whose 2bn² reaches 2^62, which take the big.Int form.
func TestHardFunctionExistsMatchesBigInt(t *testing.T) {
	check := func(p Params) {
		t.Helper()
		if got, want := p.HardFunctionExists(), hardBig(p); got != want {
			t.Fatalf("%+v: HardFunctionExists = %v, big.Int form %v", p, got, want)
		}
	}
	for n := 1; n <= 40; n++ {
		for b := 0; b <= 12; b++ {
			for L := 0; L <= 40; L++ {
				for T := 0; T <= 6; T++ {
					for _, M := range []int{0, 1, 3, 17} {
						check(Params{N: n, B: b, L: L, T: T, M: M})
					}
				}
			}
		}
	}
	// Around the int64 edge (every nL up to 320, so nL = 62, 63 and 64
	// by several (n, L) factorings): exp swept through M across nL, and
	// b at the values where 2bn² meets 2^nL − 2^exp (the sharpest
	// comparison) or, past nL = 62, where 2bn² crosses 2^62.
	for n := 2; n <= 8; n++ {
		for L := 1; L <= 40; L++ {
			nl := n * L
			for M := 0; L+M <= nl+1; M++ {
				exp := L + M
				bs := []int{0, 1, 1<<61/(n*n) - 1, 1<<61/(n*n) + 1, 1 << 58}
				if exp < nl && nl <= 62 {
					edge := int((int64(1)<<nl - int64(1)<<exp) / int64(2*n*n))
					bs = append(bs, edge-1, edge, edge+1)
				}
				for _, b := range bs {
					if b >= 0 {
						check(Params{N: n, B: b, L: L, M: M})
					}
				}
			}
		}
	}
	// 2bn² ≥ 2^62 with nL > 62 takes the big.Int form; at nL = 64,
	// exp = 63 the room is 2^64 − 2^63 = 2^63 = 8·2^60, so these are
	// both outcomes.
	for _, c := range []struct {
		p    Params
		want bool
	}{
		{Params{N: 2, B: 1<<60 - 1, L: 32, M: 31}, true},
		{Params{N: 2, B: 1 << 60, L: 32, M: 31}, false},
		{Params{N: 1 << 10, B: 1 << 45, L: 1}, true},
	} {
		check(c.p)
		if got := c.p.HardFunctionExists(); got != c.want {
			t.Errorf("%+v: HardFunctionExists = %v, want %v", c.p, got, c.want)
		}
	}
}
