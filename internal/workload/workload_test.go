package workload

import (
	"slices"
	"testing"

	"repro/internal/clique"
)

func TestAllAndNamesSortedAndAgree(t *testing.T) {
	names := Names()
	var fromAll []string
	for _, a := range All() {
		fromAll = append(fromAll, a.Name)
		if a.Make == nil {
			t.Errorf("%s: Register did not derive Make", a.Name)
		}
	}
	if !slices.IsSorted(names) || !slices.Equal(names, fromAll) {
		t.Fatalf("Names %v, All %v", names, fromAll)
	}
}

func TestRegisterPanics(t *testing.T) {
	build := func(n int, seed uint64) Instance { return Instance{} }
	for name, a := range map[string]Algorithm{
		"empty name": {New: build}, "missing New": {Name: "test-no-new"}, "duplicate": {Name: "triangle", New: build},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Register did not panic")
				}
			}()
			Register(a)
		})
	}
}

// TestAnswersMatchOracle checks node 0's answer against the oracle for
// every entry that has one.
func TestAnswersMatchOracle(t *testing.T) {
	for _, a := range All() {
		for _, backend := range clique.Backends() {
			for _, n := range []int{8, 16} {
				for seed := uint64(1); seed <= 3; seed++ {
					inst := a.New(n, seed)
					if inst.Oracle == nil {
						continue
					}
					if _, err := clique.Run(clique.Config{N: n, WordsPerPair: a.WPP, Backend: backend}, inst.Program); err != nil {
						t.Fatalf("%s/%s n=%d seed=%d: %v", a.Name, backend, n, seed, err)
					}
					if got, want := inst.Answer(), inst.Oracle(); got != want {
						t.Errorf("%s/%s n=%d seed=%d: answer %v (%T), oracle %v (%T)", a.Name, backend, n, seed, got, got, want, want)
					}
				}
			}
		}
	}
}
