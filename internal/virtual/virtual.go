package virtual

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/trace"
)

// Config describes the simulated clique.
type Config struct {
	// M is the number of virtual nodes.
	M int
	// Host maps a virtual node to the real node simulating it. It must
	// be a globally known pure function; all real nodes evaluate it
	// locally.
	Host func(v int) int
	// WordsPerPair is the virtual bandwidth budget per virtual round,
	// defaulting to 1.
	WordsPerPair int
}

// NodeFunc is the algorithm run by every virtual node.
type NodeFunc func(vn *Node)

// Node is the virtual analogue of clique.Node. Its methods may be called
// only from the virtual node's goroutine.
type Node struct {
	id  int
	eng *engine

	outbox    [][]uint64
	inbox     [][]uint64
	completed int

	// bcastPend is the size of a pending BroadcastBuf reservation
	// (0 = none); bcastScratch backs the buffer it returned.
	bcastPend    int
	bcastScratch []uint64

	arrived  chan struct{}
	released chan struct{}
	finished chan struct{}
	panicked any
}

// ID returns the virtual node id in 0..M-1.
func (vn *Node) ID() int { return vn.eng.idOf(vn) }

// N returns the number of virtual nodes.
func (vn *Node) N() int { return vn.eng.cfg.M }

// Round returns the number of completed virtual rounds.
func (vn *Node) Round() int { return vn.completed }

// WordsPerPair returns the virtual per-pair word budget.
func (vn *Node) WordsPerPair() int { return vn.eng.cfg.WordsPerPair }

// Send queues words for virtual node `to` in the current virtual round.
func (vn *Node) Send(to int, words ...uint64) {
	vn.SendWords(to, words)
}

// SendWords is the batched form of Send (see clique.Endpoint).
func (vn *Node) SendWords(to int, words []uint64) {
	vn.flushBroadcast()
	if to < 0 || to >= vn.eng.cfg.M || to == vn.id {
		panic(fmt.Sprintf("virtual: node %d: invalid Send target %d", vn.id, to))
	}
	if len(vn.outbox[to])+len(words) > vn.eng.cfg.WordsPerPair {
		panic(fmt.Sprintf("virtual: node %d round %d: bandwidth exceeded sending to %d (budget %d)",
			vn.id, vn.completed, to, vn.eng.cfg.WordsPerPair))
	}
	vn.outbox[to] = append(vn.outbox[to], words...)
}

// SendBuf reserves k words on the link to `to` and returns the outbox
// storage to fill in place (see clique.Endpoint).
func (vn *Node) SendBuf(to, k int) []uint64 {
	vn.flushBroadcast()
	if to < 0 || to >= vn.eng.cfg.M || to == vn.id {
		panic(fmt.Sprintf("virtual: node %d: invalid Send target %d", vn.id, to))
	}
	cell := vn.outbox[to]
	l := len(cell)
	if k < 0 || l+k > vn.eng.cfg.WordsPerPair {
		panic(fmt.Sprintf("virtual: node %d round %d: bandwidth exceeded sending to %d (budget %d)",
			vn.id, vn.completed, to, vn.eng.cfg.WordsPerPair))
	}
	// Grow to the full budget up front so later sends this round cannot
	// reallocate the cell out from under the returned slice.
	if cap(cell) < vn.eng.cfg.WordsPerPair {
		cell = slices.Grow(cell, vn.eng.cfg.WordsPerPair-l)
	}
	cell = cell[:l+k]
	vn.outbox[to] = cell
	return cell[l : l+k : l+k]
}

// Broadcast queues the same words for every other virtual node.
func (vn *Node) Broadcast(words ...uint64) {
	vn.BroadcastWords(words)
}

// BroadcastWords is the batched form of Broadcast (see clique.Endpoint).
func (vn *Node) BroadcastWords(words []uint64) {
	for to := 0; to < vn.eng.cfg.M; to++ {
		if to != vn.id {
			vn.SendWords(to, words)
		}
	}
}

// BroadcastBuf returns a reusable staging buffer whose contents are
// delivered by one fused broadcast at the node's next operation (see
// clique.Endpoint).
func (vn *Node) BroadcastBuf(k int) []uint64 {
	vn.flushBroadcast()
	if k < 0 {
		panic(fmt.Sprintf("virtual: node %d: negative BroadcastBuf size %d", vn.id, k))
	}
	if cap(vn.bcastScratch) < k {
		vn.bcastScratch = make([]uint64, k)
	}
	if k > 0 {
		vn.bcastPend = k
	}
	return vn.bcastScratch[:k]
}

// flushBroadcast delivers a pending BroadcastBuf as one fused
// broadcast of the staged words. Clearing bcastPend first keeps the
// BroadcastWords call from recursing back here.
func (vn *Node) flushBroadcast() {
	k := vn.bcastPend
	if k == 0 {
		return
	}
	vn.bcastPend = 0
	vn.BroadcastWords(vn.bcastScratch[:k])
}

// Tick completes the virtual round.
func (vn *Node) Tick() {
	vn.flushBroadcast()
	vn.arrived <- struct{}{}
	<-vn.released
	vn.completed++
}

// Recv returns the words received from virtual node `from` in the last
// completed virtual round.
func (vn *Node) Recv(from int) []uint64 {
	if from < 0 || from >= vn.eng.cfg.M || from == vn.id {
		panic(fmt.Sprintf("virtual: node %d: invalid Recv source %d", vn.id, from))
	}
	return vn.inbox[from]
}

// RecvInto appends the words received from virtual node `from` in the
// last completed virtual round to buf.
func (vn *Node) RecvInto(from int, buf []uint64) []uint64 {
	return append(buf, vn.Recv(from)...)
}

// Senders appends the virtual nodes that sent to this one in the last
// completed virtual round to buf, ascending, scanning the inbox.
func (vn *Node) Senders(buf []int) []int {
	for p, words := range vn.inbox {
		if len(words) != 0 {
			buf = append(buf, p)
		}
	}
	return buf
}

// Fail aborts the entire (real) run.
func (vn *Node) Fail(format string, args ...any) {
	panic(fmt.Sprintf("virtual: node %d: %s", vn.id, fmt.Sprintf(format, args...)))
}

// TracePhase delegates phase spans to the hosting real endpoint, so
// algorithms running inside a virtual clique still mark their structure
// on the real run's trace (only virtual node 0's host records —
// delegation lands on the real node-0 recorder or the shared no-op).
func (vn *Node) TracePhase(name string) func() {
	if vn.id != 0 {
		return trace.Nop
	}
	return trace.Phase(vn.eng.nd, name)
}

// TraceOp delegates op spans to the hosting real endpoint; see
// TracePhase.
func (vn *Node) TraceOp(name string, words int) func() {
	if vn.id != 0 {
		return trace.Nop
	}
	return trace.Op(vn.eng.nd, name, words)
}

type engine struct {
	cfg  Config
	nd   clique.Endpoint
	mine []*Node // virtual nodes hosted here, by local index
	ids  []int   // global ids of mine
}

func (e *engine) idOf(vn *Node) int { return vn.id }

// Run simulates cfg.M virtual nodes running f on top of the real clique
// node nd. Every real node must call Run together with identical cfg and
// f. Returns after all virtual nodes globally have terminated. The real
// round cost is measured by the enclosing clique engine; each virtual
// round costs comm.AllToAll's one length round plus ceil(maxLinkWords /
// realWordsPerPair) stream rounds, where maxLinkWords is the largest
// number of (tagged) virtual words any real link must carry.
func Run(nd clique.Endpoint, cfg Config, f NodeFunc) {
	if cfg.WordsPerPair == 0 {
		cfg.WordsPerPair = 1
	}
	if cfg.M < 1 || cfg.Host == nil {
		nd.Fail("virtual: bad config M=%d", cfg.M)
	}
	e := &engine{cfg: cfg, nd: nd}
	for v := 0; v < cfg.M; v++ {
		h := cfg.Host(v)
		if h < 0 || h >= nd.N() {
			nd.Fail("virtual: Host(%d) = %d out of range", v, h)
		}
		if h == nd.ID() {
			vn := &Node{
				id:       v,
				eng:      e,
				outbox:   make([][]uint64, cfg.M),
				inbox:    make([][]uint64, cfg.M),
				arrived:  make(chan struct{}),
				released: make(chan struct{}),
				finished: make(chan struct{}),
			}
			e.mine = append(e.mine, vn)
			e.ids = append(e.ids, v)
		}
	}

	// Launch hosted virtual nodes.
	var wg sync.WaitGroup
	for _, vn := range e.mine {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(vn.finished)
			defer func() {
				if r := recover(); r != nil {
					vn.panicked = r
				}
			}()
			f(vn)
			// Flush a pending BroadcastBuf into the outbox (with its
			// budget check) so a returning program's staged broadcast
			// behaves like its Sends: both are delivered in the virtual
			// round the node finishes in.
			vn.flushBroadcast()
		}()
	}

	live := append([]*Node(nil), e.mine...)
	for {
		// Wait for each live virtual node to reach its barrier or
		// finish. Both kinds send this virtual round: a finishing node's
		// last words are delivered like the real engines deliver a
		// returning node's, in the round the remaining nodes complete.
		var waiting []*Node
		var senders []*Node
		for _, vn := range live {
			select {
			case <-vn.arrived:
				waiting = append(waiting, vn)
			case <-vn.finished:
				if vn.panicked != nil {
					nd.Fail("virtual node %d panicked: %v", vn.id, vn.panicked)
				}
			}
			senders = append(senders, vn)
		}
		live = waiting

		// Global termination test: stop once no virtual node anywhere
		// is still running; a round no virtual node completes with Tick
		// is not exchanged, as on the real engines. (Real nodes whose
		// virtual nodes are all done must keep participating in the
		// max-reductions and exchanges of the remaining virtual rounds.)
		stillLive := comm.MaxWord(nd, uint64(len(live)))
		if stillLive == 0 {
			wg.Wait()
			return
		}

		// Collect virtual messages into per-real-destination streams.
		// Wire format per message: from, to, count, words...
		n := nd.N()
		queues := make([][]uint64, n)
		deliverLocal := func(from, to int, words []uint64) {
			for _, vn := range e.mine {
				if vn.id == to {
					vn.inbox[from] = append([]uint64(nil), words...)
					return
				}
			}
			nd.Fail("virtual: local delivery to unhosted node %d", to)
		}
		for _, vn := range waiting {
			// Reset inboxes before new delivery.
			for i := range vn.inbox {
				vn.inbox[i] = nil
			}
		}
		for _, vn := range senders {
			for to, words := range vn.outbox {
				if len(words) == 0 {
					continue
				}
				h := cfg.Host(to)
				if h == nd.ID() {
					deliverLocal(vn.id, to, words)
				} else {
					rec := []uint64{uint64(vn.id), uint64(to), uint64(len(words))}
					queues[h] = append(queues[h], append(rec, words...)...)
				}
				vn.outbox[to] = nil
			}
		}

		in := comm.AllToAll(nd, queues)
		for p := 0; p < n; p++ {
			stream := in[p]
			for off := 0; off < len(stream); {
				from := int(stream[off])
				to := int(stream[off+1])
				cnt := int(stream[off+2])
				deliverLocal(from, to, stream[off+3:off+3+cnt])
				off += 3 + cnt
			}
		}

		// Release the barrier.
		for _, vn := range waiting {
			vn.released <- struct{}{}
		}
	}
}

var _ clique.Endpoint = (*Node)(nil)
