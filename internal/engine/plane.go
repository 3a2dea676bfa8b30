package engine

// plane is the lockstep mailbox's write-once broadcast store. A
// broadcast is the densest traffic in the model — n−1 links carrying
// the same words — and storing it in the n−1 cells costs the simulator
// n−1 copies on send and, for every receiver, a column read with a
// stride of a whole sender row. The plane keeps one sender-major copy
// instead: when a sender has queued nothing yet in the round,
// broadcast copies its k words once into the sender's plane cell, and
// every receiver reads that one cell. The mailbox embeds a plane, as it
// embeds an activity mask.
//
// The plane is a storage choice, not a model change: the sender is
// charged (n−1)·k words and a per-pair length of k exactly as the cell
// path charges them, and its activity row is filled as for a cell
// broadcast. A later send, sendBuf or broadcast from the same sender in
// the same round first spills the plane into the sender's n−1 cells
// (see the mailbox's spill), so mixed rounds keep the cell path's word
// order, budget checks and violation text. A sender's plane cell and
// its row of cells are therefore never both non-empty, and recv reads
// whichever one holds the round.
//
// Receivers of one broadcast share the delivered plane cell, so the
// slice Recv returns for it is the same memory for every receiver; the
// Recv contract already makes it read-only.
//
// When every one of the n senders broadcast exactly k > 0 words on the
// plane in a round — the all-gather round of the model — deliver also
// lays the n cells end to end in one sender-major table of n·k words,
// the round's shared table (see table). A collective then fills its
// caller's table with one copy instead of n−1 reads. The cells and the
// table buffer belong to the box: they grow on first use, to the words
// broadcast, and a pooled box keeps them.
type plane struct {
	out, in [][]uint64 // per-sender words, queued / delivered round; empty = no plane
	// tab holds the delivered round's shared table, tabK words per
	// sender; tabK is 0 when the round had none.
	tab  []uint64
	tabK int
}

// newPlane builds an n-sender plane on cells, which must hold 2n
// entries; cells and the shared table grow on first use.
func newPlane(n int, cells [][]uint64) plane {
	return plane{out: cells[:n:n], in: cells[n : 2*n : 2*n]}
}

// broadcast queues the non-empty words on from's plane cell if from has
// queued nothing yet this round, charging s and marking a as the cell
// path would, and reports whether the broadcast is done; otherwise the
// caller spills the plane and takes the cell path. An over-budget
// broadcast raises the cell path's violation: its first failing link is
// the lowest peer id.
func (p *plane) broadcast(a *activity, s *senderStats, from, round, wpp int, words []uint64) bool {
	if a.n == 1 {
		return true // no links: nothing to queue, charge or check
	}
	if !a.idle(from) {
		return false
	}
	k := len(words)
	if k > wpp {
		lowest := 0
		if from == 0 {
			lowest = 1
		}
		panic(budgetViolation(from, round, k, lowest, wpp))
	}
	p.out[from] = append(p.out[from][:0], words...)
	a.markAll(from)
	s.words += int64(a.n-1) * int64(k)
	if int32(k) > s.max {
		s.max = int32(k)
	}
	return true
}

// take empties from's queued plane cell and returns its words, which
// stay readable until from's next broadcast; nil if from has none.
func (p *plane) take(from int) []uint64 {
	w := p.out[from]
	if len(w) == 0 {
		return nil
	}
	p.out[from] = w[:0]
	return w
}

// planeCell is one sender's plane cell as seen by to: capacity-limited,
// so appending to it cannot reach another sender's words, and nil for
// the sender itself, which a broadcast does not reach.
func planeCell(cells [][]uint64, from, to int) ([]uint64, bool) {
	w := cells[from]
	if len(w) == 0 {
		return nil, false
	}
	if from == to {
		return nil, true
	}
	return w[:len(w):len(w)], true
}

// deliver swaps the queued round in and builds its shared table.
// Afterwards out holds the previous delivered round's cells, which the
// caller retires (see retire) before the next round is queued.
func (p *plane) deliver() {
	p.out, p.in = p.in, p.out
	p.share()
}

// share lays the delivered cells end to end in the shared table when
// every sender's cell holds the same k > 0 words, and clears the table
// otherwise. The length scan stops at the first sender that differs,
// so a round without the table costs little more than its first cell.
func (p *plane) share() {
	p.tabK = 0
	k := len(p.in[0])
	if k == 0 {
		return
	}
	for _, w := range p.in[1:] {
		if len(w) != k {
			return
		}
	}
	t := p.tab[:0]
	for _, w := range p.in {
		t = append(t, w...)
	}
	p.tab, p.tabK = t, k
}

// table returns the delivered round's shared table of n·k words,
// sender p's words at [p·k, (p+1)·k), or nil when the round did not
// have every sender broadcast exactly k words on the plane. The slice
// is capacity-limited and shared by every node of the run; it is valid
// until the next exchange.
func (p *plane) table(k int) []uint64 {
	if k <= 0 || k != p.tabK {
		return nil
	}
	return p.tab[: len(p.in)*k : len(p.in)*k]
}

// retire empties from's retired plane cell and reports whether it held
// a broadcast, in which case from's retired cells are already empty.
func (p *plane) retire(from int) bool { return p.take(from) != nil }

// reset empties every cell, for a pooled box's next run.
func (p *plane) reset() {
	for i, w := range p.out {
		p.out[i] = w[:0]
	}
	for i, w := range p.in {
		p.in[i] = w[:0]
	}
	p.tabK = 0
}
