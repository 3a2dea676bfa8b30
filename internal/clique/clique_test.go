package clique

import (
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestBroadcastSum(t *testing.T) {
	const n = 8
	sums := make([]uint64, n)
	res, err := Run(Config{N: n}, func(nd *Node) {
		nd.Broadcast(uint64(nd.ID() + 1))
		nd.Tick()
		total := uint64(nd.ID() + 1)
		for p := 0; p < n; p++ {
			if p == nd.ID() {
				continue
			}
			got := nd.Recv(p)
			if len(got) != 1 {
				nd.Fail("expected 1 word from %d, got %d", p, len(got))
			}
			total += got[0]
		}
		sums[nd.ID()] = total
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(n * (n + 1) / 2)
	for v, s := range sums {
		if s != want {
			t.Errorf("node %d computed sum %d, want %d", v, s, want)
		}
	}
	if res.Stats.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", res.Stats.Rounds)
	}
	if res.Stats.WordsSent != int64(n*(n-1)) {
		t.Errorf("WordsSent = %d, want %d", res.Stats.WordsSent, n*(n-1))
	}
	if res.Stats.MaxPairWords != 1 {
		t.Errorf("MaxPairWords = %d, want 1", res.Stats.MaxPairWords)
	}
}

func TestPointToPointOrdering(t *testing.T) {
	// Node 0 sends two words to node 1 over two rounds with budget 1;
	// order of arrival must match order of sending.
	const n = 3
	var got []uint64
	_, err := Run(Config{N: n}, func(nd *Node) {
		switch nd.ID() {
		case 0:
			nd.Send(1, 42)
			nd.Tick()
			nd.Send(1, 43)
			nd.Tick()
		case 1:
			nd.Tick()
			got = append(got, nd.Recv(0)...)
			nd.Tick()
			got = append(got, nd.Recv(0)...)
		default:
			nd.Tick()
			nd.Tick()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 42 || got[1] != 43 {
		t.Errorf("received %v, want [42 43]", got)
	}
}

func TestBandwidthViolation(t *testing.T) {
	_, err := Run(Config{N: 4, WordsPerPair: 2}, func(nd *Node) {
		if nd.ID() == 0 {
			nd.Send(1, 1, 2, 3) // 3 words > budget 2
		}
		nd.Tick()
	})
	if err == nil || !strings.Contains(err.Error(), "bandwidth exceeded") {
		t.Fatalf("want bandwidth error, got %v", err)
	}
}

// TestEveryNodeViolatesNamesLowestID: when every node breaks the
// budget in the same round, both backends name node 0, the lowest-id
// violator, in every run — the canonical error RunBatch's contract
// promises — however the goroutine backend's nodes interleave.
func TestEveryNodeViolatesNamesLowestID(t *testing.T) {
	const n = 16
	want := "clique: node 0 round 1: bandwidth exceeded sending 2 words to 1 (budget 1 words/pair/round)"
	for _, backend := range Backends() {
		for i := 0; i < 20; i++ {
			_, err := Run(Config{N: n, WordsPerPair: 1, Backend: backend}, func(nd *Node) {
				nd.Tick()
				nd.Send((nd.ID()+1)%n, 1, 2)
				nd.Tick()
			})
			if err == nil || err.Error() != want {
				t.Fatalf("%s run %d: err %v, want %q", backend, i, err, want)
			}
		}
	}
}

func TestMultiWordBudget(t *testing.T) {
	res, err := Run(Config{N: 4, WordsPerPair: 3}, func(nd *Node) {
		nd.Broadcast(1, 2, 3)
		nd.Tick()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxPairWords != 3 {
		t.Errorf("MaxPairWords = %d, want 3", res.Stats.MaxPairWords)
	}
}

func TestSendToSelfRejected(t *testing.T) {
	_, err := Run(Config{N: 2}, func(nd *Node) {
		nd.Send(nd.ID(), 7)
		nd.Tick()
	})
	if err == nil || !strings.Contains(err.Error(), "invalid Send target") {
		t.Fatalf("want self-send error, got %v", err)
	}
}

func TestNodePanicPropagates(t *testing.T) {
	_, err := Run(Config{N: 4}, func(nd *Node) {
		if nd.ID() == 2 {
			panic("boom")
		}
		nd.Tick()
		nd.Tick()
	})
	if err == nil || !strings.Contains(err.Error(), "node 2 panicked: boom") {
		t.Fatalf("want panic error, got %v", err)
	}
}

func TestEarlyReturnNodesDoNotBlockOthers(t *testing.T) {
	// Nodes 1..n-1 return immediately; node 0 runs three more rounds.
	const n = 5
	res, err := Run(Config{N: n}, func(nd *Node) {
		if nd.ID() != 0 {
			return
		}
		for i := 0; i < 3; i++ {
			nd.Tick()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", res.Stats.Rounds)
	}
}

func TestMaxRounds(t *testing.T) {
	_, err := Run(Config{N: 2, MaxRounds: 5}, func(nd *Node) {
		for {
			nd.Tick()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "MaxRounds") {
		t.Fatalf("want MaxRounds error, got %v", err)
	}
}

func TestRoundCounter(t *testing.T) {
	_, err := Run(Config{N: 2}, func(nd *Node) {
		for i := 0; i < 4; i++ {
			if nd.Round() != i {
				nd.Fail("Round() = %d, want %d", nd.Round(), i)
			}
			nd.Tick()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTranscriptSymmetry(t *testing.T) {
	const n = 4
	res, err := Run(Config{N: n, RecordTranscript: true}, func(nd *Node) {
		// Everyone sends its id to everyone for two rounds.
		for r := 0; r < 2; r++ {
			nd.Broadcast(uint64(nd.ID()*10 + r))
			nd.Tick()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transcripts) != n {
		t.Fatalf("got %d transcripts, want %d", len(res.Transcripts), n)
	}
	for v := 0; v < n; v++ {
		tr := res.Transcripts[v]
		if tr.NodeID != v {
			t.Errorf("transcript %d has NodeID %d", v, tr.NodeID)
		}
		if len(tr.Rounds) != 2 {
			t.Fatalf("node %d transcript has %d rounds, want 2", v, len(tr.Rounds))
		}
		for r := range tr.Rounds {
			for p := 0; p < n; p++ {
				if p == v {
					continue
				}
				sent := tr.Rounds[r].Sent[p]
				recvAtPeer := res.Transcripts[p].Rounds[r].Recv[v]
				if len(sent) != len(recvAtPeer) {
					t.Fatalf("round %d: node %d sent %v to %d, peer recorded %v", r, v, sent, p, recvAtPeer)
				}
				for i := range sent {
					if sent[i] != recvAtPeer[i] {
						t.Fatalf("round %d: transcript mismatch %v vs %v", r, sent, recvAtPeer)
					}
				}
			}
		}
		wantWords := 2 * 2 * (n - 1) // 2 rounds x (sent + recv) x (n-1) peers
		if tr.Words() != wantWords {
			t.Errorf("node %d transcript words = %d, want %d", v, tr.Words(), wantWords)
		}
	}
}

func TestDeterministicStats(t *testing.T) {
	run := func() Stats {
		res, err := Run(Config{N: 6}, func(nd *Node) {
			for r := 0; r < 3; r++ {
				nd.Send((nd.ID()+r+1)%nd.N(), uint64(r))
				nd.Tick()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs produced different stats: %+v vs %+v", a, b)
	}
}

func TestReplayMatchesLiveRun(t *testing.T) {
	const n = 4
	alg := func(nd *Node) {
		// Round 0: broadcast id. Round 1: echo max received id to node 0.
		nd.Broadcast(uint64(nd.ID()))
		nd.Tick()
		max := uint64(nd.ID())
		for p := 0; p < n; p++ {
			if p == nd.ID() {
				continue
			}
			if w := nd.Recv(p); len(w) > 0 && w[0] > max {
				max = w[0]
			}
		}
		if nd.ID() != 0 {
			nd.Send(0, max)
		}
		nd.Tick()
	}
	res, err := Run(Config{N: n, RecordTranscript: true}, alg)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild node 2's inbox from its transcript and replay it.
	tr := res.Transcripts[2]
	inbox := make([][][]uint64, len(tr.Rounds))
	for r := range tr.Rounds {
		inbox[r] = tr.Rounds[r].Recv
	}
	rep, err := Replay(Config{N: n}, 2, alg, inbox)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("replay did not complete")
	}
	if rep.Rounds != len(tr.Rounds) {
		t.Fatalf("replay rounds = %d, want %d", rep.Rounds, len(tr.Rounds))
	}
	for r := range rep.Sent {
		for p := 0; p < n; p++ {
			if p == 2 {
				continue
			}
			want := tr.Rounds[r].Sent[p]
			got := rep.Sent[r][p]
			if len(want) != len(got) {
				t.Fatalf("round %d peer %d: replay sent %v, live sent %v", r, p, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("round %d peer %d: replay sent %v, live sent %v", r, p, got, want)
				}
			}
		}
	}
}

func TestReplayDetectsDivergence(t *testing.T) {
	// An algorithm that sends whatever it received; feed it a tampered
	// inbox and observe the divergent output.
	const n = 3
	alg := func(nd *Node) {
		if nd.ID() == 0 {
			nd.Tick()
			w := nd.Recv(1)
			if len(w) > 0 {
				nd.Send(2, w[0])
			}
			nd.Tick()
		} else {
			if nd.ID() == 1 {
				nd.Send(0, 5)
			}
			nd.Tick()
			nd.Tick()
		}
	}
	inbox := [][][]uint64{
		{nil, {99}, nil}, // tampered: live run would deliver 5
		{nil, nil, nil},
	}
	rep, err := Replay(Config{N: n}, 0, alg, inbox)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sent) < 2 || len(rep.Sent[1][2]) != 1 || rep.Sent[1][2][0] != 99 {
		t.Fatalf("replay sent %v, want 99 forwarded to node 2", rep.Sent)
	}
}

func TestWordsAccounting(t *testing.T) {
	// Property: for any pattern of k words per node per round, the total
	// accounted words equal what was sent.
	f := func(seed uint8) bool {
		n := 3 + int(seed%4)
		pattern := int(seed%3) + 1
		var sent atomic.Int64
		res, err := Run(Config{N: n, WordsPerPair: 3}, func(nd *Node) {
			for r := 0; r < 2; r++ {
				for p := 0; p < n; p++ {
					if p == nd.ID() || (p+r)%pattern != 0 {
						continue
					}
					nd.Send(p, uint64(p))
					sent.Add(1)
				}
				nd.Tick()
			}
		})
		if err != nil {
			return false
		}
		return res.Stats.WordsSent == sent.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWordBits(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4}, {17, 5}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := WordBits(c.n); got != c.want {
			t.Errorf("WordBits(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPairWordRoundTrip(t *testing.T) {
	f := func(a, b uint8) bool {
		n := 300
		u, v := int(a)%n, int(b)%n
		gu, gv := UnpairWord(PairWord(u, v, n), n)
		return gu == u && gv == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackBitsRoundTrip(t *testing.T) {
	f := func(raw []bool) bool {
		got := UnpackBits(PackBits(raw), len(raw))
		if len(got) != len(raw) {
			return false
		}
		for i := range raw {
			if got[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{N: 0}).Validate(); err == nil {
		t.Error("N=0 accepted")
	}
	if err := (Config{N: 2, WordsPerPair: -1}).Validate(); err == nil {
		t.Error("negative WordsPerPair accepted")
	}
	if err := (Config{N: 2, MaxRounds: -1}).Validate(); err == nil {
		t.Error("negative MaxRounds accepted")
	}
	if err := (Config{N: 2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestRecvBeforeFirstTick(t *testing.T) {
	_, err := Run(Config{N: 2}, func(nd *Node) {
		if w := nd.Recv(1 - nd.ID()); w != nil {
			nd.Fail("Recv before Tick = %v, want nil", w)
		}
		if buf := nd.RecvInto(1-nd.ID(), []uint64{7}); len(buf) != 1 || buf[0] != 7 {
			nd.Fail("RecvInto before Tick = %v, want the buffer unchanged", buf)
		}
		if ids := nd.Senders(nil); ids != nil {
			nd.Fail("Senders before Tick = %v, want nil", ids)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastOnlyModelAcceptsBroadcasts(t *testing.T) {
	// A genuine broadcast algorithm runs unchanged in the broadcast
	// congested clique.
	const n = 6
	res, err := Run(Config{N: n, BroadcastOnly: true}, func(nd *Node) {
		nd.Broadcast(uint64(nd.ID()))
		nd.Tick()
		nd.Tick() // a silent round is also legal
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 2 {
		t.Errorf("rounds = %d", res.Stats.Rounds)
	}
}

func TestBroadcastOnlyModelRejectsUnicast(t *testing.T) {
	_, err := Run(Config{N: 4, BroadcastOnly: true}, func(nd *Node) {
		if nd.ID() == 0 {
			nd.Send(1, 7) // point-to-point: illegal here
		}
		nd.Tick()
	})
	if err == nil || !strings.Contains(err.Error(), "broadcast-only") {
		t.Fatalf("want broadcast-only violation, got %v", err)
	}
}

func TestBroadcastOnlyModelRejectsDifferingWords(t *testing.T) {
	_, err := Run(Config{N: 3, BroadcastOnly: true}, func(nd *Node) {
		if nd.ID() == 0 {
			nd.Send(1, 7)
			nd.Send(2, 8) // everyone must get the same words
		}
		nd.Tick()
	})
	if err == nil || !strings.Contains(err.Error(), "broadcast-only") {
		t.Fatalf("want broadcast-only violation, got %v", err)
	}
}

func TestBandwidthScaling(t *testing.T) {
	// Doubling WordsPerPair halves broadcast-heavy round counts: the
	// constant moves between bandwidth and time, as the paper's
	// normalisation discussion says.
	const n, k = 8, 12
	rounds := func(wpp int) int {
		res, err := Run(Config{N: n, WordsPerPair: wpp}, func(nd *Node) {
			words := make([]uint64, k)
			for off := 0; off < k; off += wpp {
				end := off + wpp
				if end > k {
					end = k
				}
				nd.Broadcast(words[off:end]...)
				nd.Tick()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Rounds
	}
	if r1, r2 := rounds(1), rounds(2); r1 != 2*r2 {
		t.Errorf("wpp 1 -> %d rounds, wpp 2 -> %d rounds; want exact halving", r1, r2)
	}
}

func TestConcurrentEngines(t *testing.T) {
	// Two independent simulations running in parallel must not
	// interfere: the engine has no global state.
	done := make(chan Stats, 2)
	for e := 0; e < 2; e++ {
		go func() {
			res, err := Run(Config{N: 6}, func(nd *Node) {
				for r := 0; r < 4; r++ {
					nd.Broadcast(uint64(e*100 + nd.ID()))
					nd.Tick()
				}
			})
			if err != nil {
				t.Error(err)
			}
			done <- res.Stats
		}()
	}
	a, b := <-done, <-done
	if a != b {
		t.Errorf("identical concurrent runs diverged: %+v vs %+v", a, b)
	}
}
