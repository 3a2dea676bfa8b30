package engine

import (
	"fmt"
	"slices"
	"testing"
)

// tableRound is one scripted round of tableProgram: the words each node
// broadcasts (nil: silent), whether node spill also sends node 0 an
// empty message after its broadcast, which spills it into its cells,
// and the table width every node must then see (0: none).
type tableRound struct {
	words func(id int) []uint64
	spill int // -1: nobody
	want  int
}

// each broadcasts k words derived from the node id and the round.
func each(k, round int) func(id int) []uint64 {
	return func(id int) []uint64 {
		out := make([]uint64, k)
		for i := range out {
			out[i] = uint64(1000*round + 10*id + i)
		}
		return out
	}
}

// except silences node quiet in f's round.
func except(quiet int, f func(id int) []uint64) func(id int) []uint64 {
	return func(id int) []uint64 {
		if id == quiet {
			return nil
		}
		return f(id)
	}
}

// tableRounds covers every way a round can have or lack the shared
// table on n = 5 nodes, wpp 2: uniform rounds of both widths, a
// broadcast later spilled by a send, a silent node, mixed lengths, and
// (last round) a node that returns after broadcasting, whose words
// still count.
var tableRounds = []tableRound{
	{each(2, 0), -1, 2},
	{each(1, 1), 3, 0},
	{except(2, each(1, 2)), -1, 0},
	{func(id int) []uint64 { return each(1+id%2, 3)(id) }, -1, 0},
	{each(1, 4), -1, 1},
	{each(2, 5), -1, 2},
}

// tableProgram runs tableRounds; node 4 leaves after queueing its last
// broadcast, without a Barrier. After every round each node compares
// BroadcastTable at every width with its Recv reads: on lockstep the
// table must exist exactly at the round's width and equal, word for
// word, every sender's Recv words laid end to end (the node's own
// words at its own slot); with shared false (the goroutine backend, or
// n = 1) it must always be nil. Before the first Barrier it is nil.
func tableProgram(n int, shared bool, rounds []tableRound) func(id int, rt NodeRuntime) {
	return func(id int, rt NodeRuntime) {
		if t := rt.BroadcastTable(1); t != nil {
			panic(Violation{Err: fmt.Errorf("node %d: table %v before the first round", id, t)})
		}
		for r, c := range rounds {
			mine := c.words(id)
			if len(mine) > 0 {
				rt.Broadcast(id, r, mine)
			}
			if id == c.spill {
				rt.Send(id, r, 0, nil)
			}
			if r == len(rounds)-1 && id == n-1 {
				return
			}
			rt.Barrier(id)
			var recv []uint64
			for p := 0; p < n; p++ {
				if p == id {
					recv = append(recv, mine...)
				} else {
					recv = append(recv, rt.Recv(id, p)...)
				}
			}
			for k := 0; k <= 3; k++ {
				got := rt.BroadcastTable(k)
				switch {
				case shared && k == c.want && c.want > 0:
					if !slices.Equal(got, recv) {
						panic(Violation{Err: fmt.Errorf("node %d round %d: table(%d) = %v, Recv loop %v", id, r, k, got, recv)})
					}
				case got != nil:
					panic(Violation{Err: fmt.Errorf("node %d round %d: table(%d) = %v, want nil", id, r, k, got)})
				}
			}
		}
	}
}

// TestBroadcastTableAtEveryNode runs tableRounds on the lockstep
// backend, as a Run and as every run of a batch, and on the goroutine
// backend, where the table is always nil. The mailbox-level scripts
// (checkPlaneScript) hold the table of every state a box starts a run
// in to the cell path.
func TestBroadcastTableAtEveryNode(t *testing.T) {
	const n = 5
	cfg := Config{N: n, WordsPerPair: 2}
	if _, err := (lockstepBackend{}).Run(cfg, tableProgram(n, true, tableRounds)); err != nil {
		t.Fatalf("lockstep: %v", err)
	}
	_, errs := lockstepBackend{}.RunBatch(cfg, 3, func(_, id int, rt NodeRuntime) {
		tableProgram(n, true, tableRounds)(id, rt)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("lockstep batch run %d: %v", r, err)
		}
	}
	if _, err := (goroutineBackend{}).Run(cfg, tableProgram(n, false, tableRounds)); err != nil {
		t.Fatalf("goroutine: %v", err)
	}
	// n = 1: a broadcast reaches nobody and leaves no table.
	one := []tableRound{{each(1, 0), -1, 0}, {each(1, 1), -1, 0}}
	for name, be := range map[string]Backend{"lockstep": lockstepBackend{}, "goroutine": goroutineBackend{}} {
		if _, err := be.Run(Config{N: 1}, tableProgram(1, false, one)); err != nil {
			t.Fatalf("%s n=1: %v", name, err)
		}
	}
}

// TestBroadcastTablePerRun: the runs of one batch share a scheduler and
// their mailboxes' tables, but each sees only its own broadcast table — run r broadcasts words
// tagged r, and run 1 has a silent node, so it has no table while its
// siblings do.
func TestBroadcastTablePerRun(t *testing.T) {
	const n, batch = 6, 3
	seen := make([][]bool, batch)
	for r := range seen {
		seen[r] = make([]bool, n)
	}
	_, errs := lockstepBackend{}.RunBatch(Config{N: n}, batch, func(run, id int, rt NodeRuntime) {
		for r := 0; r < 3; r++ {
			if run != 1 || id != 2 {
				rt.Broadcast(id, r, []uint64{uint64(100*run + 10*r + id)})
			}
			rt.Barrier(id)
			got := rt.BroadcastTable(1)
			if run == 1 {
				if got != nil {
					panic(Violation{Err: fmt.Errorf("run 1 node %d round %d: table %v with a silent node", id, r, got)})
				}
				continue
			}
			for p, w := range got {
				if w != uint64(100*run+10*r+p) {
					panic(Violation{Err: fmt.Errorf("run %d node %d round %d: table[%d] = %d", run, id, r, p, w)})
				}
			}
			seen[run][id] = len(got) == n
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", r, err)
		}
	}
	for _, r := range []int{0, 2} {
		for id, ok := range seen[r] {
			if !ok {
				t.Errorf("run %d node %d saw no table", r, id)
			}
		}
	}
}

// TestBroadcastTableNotReused: a run that ends on a uniform round
// leaves its table in the box it returns to the pool; the next run of
// the same shape, whichever box it draws, sees none before its own
// first uniform round.
func TestBroadcastTableNotReused(t *testing.T) {
	const n = 4
	cfg := Config{N: n}
	for i := 0; i < 3; i++ {
		_, err := lockstepBackend{}.Run(cfg, func(id int, rt NodeRuntime) {
			if t := rt.BroadcastTable(1); t != nil {
				panic(Violation{Err: fmt.Errorf("run %d node %d: table %v before the first round", i, id, t)})
			}
			rt.Broadcast(id, 0, []uint64{uint64(id)})
			rt.Barrier(id)
			if rt.BroadcastTable(1) == nil {
				panic(Violation{Err: fmt.Errorf("run %d node %d: no table after a uniform round", i, id)})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
