package virtual

import (
	"strings"
	"testing"

	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/paths"
)

func TestBroadcastSumOnVirtualClique(t *testing.T) {
	// 12 virtual nodes on 4 real nodes: every virtual node broadcasts
	// its id+1 and sums what it hears.
	const n, m = 4, 12
	sums := make([]uint64, m)
	_, err := clique.Run(clique.Config{N: n, WordsPerPair: 4}, func(nd *clique.Node) {
		Run(nd, Config{M: m, Host: func(v int) int { return v % n }}, func(vn *Node) {
			vn.Broadcast(uint64(vn.ID() + 1))
			vn.Tick()
			total := uint64(vn.ID() + 1)
			for p := 0; p < m; p++ {
				if p == vn.ID() {
					continue
				}
				w := vn.Recv(p)
				if len(w) != 1 {
					vn.Fail("expected 1 word from %d, got %d", p, len(w))
				}
				total += w[0]
			}
			sums[vn.ID()] = total
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(m * (m + 1) / 2)
	for v, s := range sums {
		if s != want {
			t.Errorf("virtual node %d sum = %d, want %d", v, s, want)
		}
	}
}

func TestAlgorithmsRunUnchangedOnVirtualClique(t *testing.T) {
	// The Endpoint abstraction at work: run the SSSP algorithm written
	// for real cliques inside a virtual clique, and compare with ground
	// truth. This is the shape of the paper's Theorem 10 simulation.
	g := graph.GnpWeighted(10, 0.4, 9, false, 21)
	want := graph.FloydWarshall(g)
	const n = 4 // real clique is much smaller than the virtual one
	got := make([]int64, g.N)
	_, err := clique.Run(clique.Config{N: n, WordsPerPair: 8}, func(nd *clique.Node) {
		Run(nd, Config{M: g.N, Host: func(v int) int { return v % n }}, func(vn *Node) {
			got[vn.ID()] = paths.SSSP(vn, g.W[vn.ID()], 0).Dist
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := range got {
		if got[v] != want[0][v] {
			t.Errorf("dist(0,%d) = %d, want %d", v, got[v], want[0][v])
		}
	}
}

func TestUnevenHosting(t *testing.T) {
	// All virtual nodes on one real node plus one on another: exercises
	// local delivery and empty hosts.
	const n, m = 5, 7
	host := func(v int) int {
		if v == m-1 {
			return 3
		}
		return 0
	}
	vals := make([]uint64, m)
	_, err := clique.Run(clique.Config{N: n, WordsPerPair: 4}, func(nd *clique.Node) {
		Run(nd, Config{M: m, Host: host}, func(vn *Node) {
			if vn.ID() > 0 {
				vn.Send(0, uint64(vn.ID())*10)
			}
			vn.Tick()
			if vn.ID() == 0 {
				var total uint64
				for p := 1; p < m; p++ {
					w := vn.Recv(p)
					if len(w) != 1 {
						vn.Fail("missing word from %d", p)
					}
					total += w[0]
				}
				vals[0] = total
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(10 * (1 + 2 + 3 + 4 + 5 + 6))
	if vals[0] != want {
		t.Errorf("gathered %d, want %d", vals[0], want)
	}
}

func TestVirtualBandwidthEnforced(t *testing.T) {
	_, err := clique.Run(clique.Config{N: 2, WordsPerPair: 8}, func(nd *clique.Node) {
		Run(nd, Config{M: 4, Host: func(v int) int { return v % 2 }, WordsPerPair: 1}, func(vn *Node) {
			if vn.ID() == 0 {
				vn.Send(1, 1, 2) // two words, budget one
			}
			vn.Tick()
		})
	})
	if err == nil || !strings.Contains(err.Error(), "bandwidth exceeded") {
		t.Fatalf("want virtual bandwidth error, got %v", err)
	}
}

func TestVirtualPanicPropagates(t *testing.T) {
	_, err := clique.Run(clique.Config{N: 2, WordsPerPair: 4}, func(nd *clique.Node) {
		Run(nd, Config{M: 4, Host: func(v int) int { return v % 2 }}, func(vn *Node) {
			if vn.ID() == 3 {
				panic("virtual boom")
			}
			vn.Tick()
		})
	})
	if err == nil || !strings.Contains(err.Error(), "virtual boom") {
		t.Fatalf("want virtual panic error, got %v", err)
	}
}

func TestDifferentVirtualLifetimes(t *testing.T) {
	// Virtual nodes ticking different numbers of rounds must not
	// deadlock the coordinator.
	const n, m = 3, 9
	_, err := clique.Run(clique.Config{N: n, WordsPerPair: 4}, func(nd *clique.Node) {
		Run(nd, Config{M: m, Host: func(v int) int { return v % n }}, func(vn *Node) {
			for r := 0; r < vn.ID()%4; r++ {
				vn.Tick()
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimulationOverheadAccounting(t *testing.T) {
	// A virtual round with one word per virtual pair costs at least one
	// real round; with m/n virtual nodes per host, a dense virtual round
	// squeezes (m/n)^2 virtual pairs through each real link.
	const n, m, vrounds = 4, 16, 3
	res, err := clique.Run(clique.Config{N: n, WordsPerPair: 4}, func(nd *clique.Node) {
		Run(nd, Config{M: m, Host: func(v int) int { return v % n }}, func(vn *Node) {
			for r := 0; r < vrounds; r++ {
				vn.Broadcast(uint64(r))
				vn.Tick()
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds <= vrounds {
		t.Errorf("real rounds %d should exceed virtual rounds %d (simulation overhead)",
			res.Stats.Rounds, vrounds)
	}
	// MaxWord reduction plus stream rounds per virtual round, bounded by
	// a generous constant times the virtual-pairs-per-link ratio.
	maxExpected := (vrounds + 1) * (2 + (m/n)*(m/n)*4)
	if res.Stats.Rounds > maxExpected {
		t.Errorf("real rounds %d exceed expected overhead bound %d", res.Stats.Rounds, maxExpected)
	}
}

func TestMaxWordInsideVirtualClique(t *testing.T) {
	// Nested use of the routing helpers on a virtual endpoint.
	const n, m = 3, 6
	_, err := clique.Run(clique.Config{N: n, WordsPerPair: 6}, func(nd *clique.Node) {
		Run(nd, Config{M: m, Host: func(v int) int { return v % n }, WordsPerPair: 2}, func(vn *Node) {
			got := comm.MaxWord(vn, uint64(vn.ID()))
			if got != m-1 {
				vn.Fail("MaxWord = %d, want %d", got, m-1)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedVirtualCliques(t *testing.T) {
	// Endpoint composability: a virtual clique hosted on a virtual
	// clique hosted on the real engine. 3 real -> 6 virtual -> 12
	// doubly-virtual nodes computing a global max.
	const real, mid, top = 3, 6, 12
	got := make([]uint64, top)
	_, err := clique.Run(clique.Config{N: real, WordsPerPair: 16}, func(nd *clique.Node) {
		Run(nd, Config{M: mid, Host: func(v int) int { return v % real }, WordsPerPair: 8}, func(vn *Node) {
			Run(vn, Config{M: top, Host: func(v int) int { return v % mid }, WordsPerPair: 2}, func(wn *Node) {
				got[wn.ID()] = comm.MaxWord(wn, uint64(wn.ID()*7))
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range got {
		if m != 7*(top-1) {
			t.Errorf("doubly-virtual node %d computed max %d, want %d", v, m, 7*(top-1))
		}
	}
}

// TestReturningNodeDeliversLastSends: a virtual node that sends (or
// stages a BroadcastBuf) and returns without Tick delivers those words
// in the round its peers complete, exactly as a real node does on both
// engines.
func TestReturningNodeDeliversLastSends(t *testing.T) {
	const m = 3
	for _, c := range []struct {
		name string
		last func(nd clique.Endpoint)
	}{
		{"send", func(nd clique.Endpoint) { nd.Send(1, 42) }},
		{"broadcastbuf", func(nd clique.Endpoint) { nd.BroadcastBuf(1)[0] = 42 }},
	} {
		// got[0] is the real clique's reading, got[1] the virtual one's.
		var got [2][]uint64
		prog := func(slot int) func(nd clique.Endpoint) {
			return func(nd clique.Endpoint) {
				switch nd.ID() {
				case 0:
					c.last(nd)
					return
				case 1:
					nd.Tick()
					got[slot] = append([]uint64(nil), nd.Recv(0)...)
				default:
					nd.Tick()
				}
			}
		}
		for _, backend := range clique.Backends() {
			got = [2][]uint64{}
			if _, err := clique.Run(clique.Config{N: m, Backend: backend}, func(nd *clique.Node) { prog(0)(nd) }); err != nil {
				t.Fatalf("%s on %s: %v", c.name, backend, err)
			}
			_, err := clique.Run(clique.Config{N: 2, WordsPerPair: 4, Backend: backend}, func(nd *clique.Node) {
				Run(nd, Config{M: m, Host: func(v int) int { return v % 2 }}, func(vn *Node) { prog(1)(vn) })
			})
			if err != nil {
				t.Fatalf("%s on %s, virtual: %v", c.name, backend, err)
			}
			if len(got[0]) != 1 || got[0][0] != 42 {
				t.Errorf("%s on %s: real node 1 read %v from the returning node, want [42]", c.name, backend, got[0])
			}
			if len(got[1]) != 1 || got[1][0] != 42 {
				t.Errorf("%s on %s: virtual node 1 read %v from the returning node, want [42]", c.name, backend, got[1])
			}
		}
	}
}
