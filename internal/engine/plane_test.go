package engine

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// planeOp is one scripted mailbox call: a send, a sendBuf (filled with
// words) or a broadcast from `from`.
type planeOp struct {
	kind  byte // 's' send, 'b' sendBuf, 'B' broadcast
	from  int
	to    int // ignored by broadcast
	words []uint64
}

// refCells is the cell-path semantics the broadcast plane must
// reproduce: every ordered pair's words in its own cell, a broadcast
// being n−1 sends in increasing target order, each checked against the
// budget before it is queued.
type refCells struct {
	n, wpp  int
	out, in [][][]uint64
	words   int64
	maxPair int
}

func newRefCells(n, wpp int) *refCells {
	r := &refCells{n: n, wpp: wpp, out: make([][][]uint64, n), in: make([][][]uint64, n)}
	for i := range r.out {
		r.out[i] = make([][]uint64, n)
		r.in[i] = make([][]uint64, n)
	}
	return r
}

func (r *refCells) send(from, round, to int, words []uint64) {
	l := len(r.out[from][to])
	if l+len(words) > r.wpp {
		panic(budgetViolation(from, round, l+len(words), to, r.wpp))
	}
	if len(words) == 0 {
		return
	}
	r.out[from][to] = append(r.out[from][to], words...)
	r.words += int64(len(words))
	r.maxPair = max(r.maxPair, l+len(words))
}

func (r *refCells) apply(op planeOp, round int) {
	switch op.kind {
	case 'B':
		for to := 0; to < r.n; to++ {
			if to != op.from {
				r.send(op.from, round, to, op.words)
			}
		}
	default:
		r.send(op.from, round, op.to, op.words)
	}
}

func (r *refCells) exchange() {
	r.out, r.in = r.in, r.out
	for _, row := range r.out {
		clear(row)
	}
}

// applyBox runs op on a mailbox, returning the Violation text it
// raised, if any.
func applyBox(b mailbox, op planeOp, round int) (vio string) {
	defer func() {
		if v, ok := recover().(Violation); ok {
			vio = v.Err.Error()
		}
	}()
	switch op.kind {
	case 's':
		b.send(op.from, round, op.to, op.words)
	case 'b':
		copy(b.sendBuf(op.from, round, op.to, len(op.words)), op.words)
	case 'B':
		b.broadcast(op.from, round, op.words)
	}
	return ""
}

func applyRef(r *refCells, op planeOp, round int) (vio string) {
	defer func() {
		if v, ok := recover().(Violation); ok {
			vio = v.Err.Error()
		}
	}()
	r.apply(op, round)
	return ""
}

// planeLayouts builds each mailbox the lockstep engine runs on: the
// dense arena, the sliceBox fallback, and a non-first view of a shared
// batch arena.
func planeLayouts(n, wpp int) map[string]mailbox {
	views, _ := newBatchBoxes(3, n, wpp) // the GC reclaims the scratch
	return map[string]mailbox{
		"arena":      newArenaBox(n, wpp),
		"slice":      newSliceBox(n, wpp),
		"batch-view": views[1],
	}
}

// sharedK is the width of the shared table a round of ops must leave:
// k when every one of the n senders' only non-empty op is one plane
// broadcast of k words, 0 when the round has no table. An empty
// broadcast queues nothing, but an empty send or sendBuf spills.
func sharedK(n int, ops []planeOp) int {
	if n < 2 {
		return 0
	}
	k := make([]int, n) // words broadcast per sender; -1 disqualifies
	for _, op := range ops {
		switch {
		case op.kind == 'B' && len(op.words) == 0:
		case op.kind == 'B' && k[op.from] == 0:
			k[op.from] = len(op.words)
		default:
			k[op.from] = -1
		}
	}
	for _, x := range k[1:] {
		if x != k[0] {
			return 0
		}
	}
	return max(k[0], 0)
}

// checkTable holds a box's shared table after an exchange to the cell
// reference: for the round's width k (sharedK) it is every sender's
// delivered words laid end to end, capacity-limited; for every other
// width, and for every width when the round has none, it is nil.
func checkTable(t *testing.T, name string, round int, b mailbox, ref *refCells, k int) {
	t.Helper()
	for c := 0; c <= ref.wpp+1; c++ {
		got := b.table(c)
		if c != k || k == 0 {
			if got != nil {
				t.Fatalf("%s round %d: table(%d) = %v, want nil (round width %d)", name, round, c, got, k)
			}
			continue
		}
		var want []uint64
		for p := 0; p < ref.n; p++ {
			want = append(want, ref.in[p][(p+1)%ref.n]...)
		}
		if !slices.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("%s round %d: table(%d) = %v (cap %d), cell path %v", name, round, c, got, cap(got), want)
		}
	}
}

// checkPlaneScript drives one scripted run through a mailbox and the
// cell reference in lockstep, comparing after every round the queued
// cells (outCell), the violation raised, the cumulative statistics,
// both receive paths — recv (which must be capacity-limited) and
// senders — and the shared table. A violation ends the script.
func checkPlaneScript(t *testing.T, name string, b mailbox, n, wpp int, rounds [][]planeOp) {
	t.Helper()
	ref := newRefCells(n, wpp)
	for round, ops := range rounds {
		for _, op := range ops {
			got, want := applyBox(b, op, round), applyRef(ref, op, round)
			if got != want {
				t.Fatalf("%s round %d %c from %d: violation %q, cell path %q", name, round, op.kind, op.from, got, want)
			}
			if got != "" {
				return
			}
		}
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if to == from {
					continue
				}
				if got, want := b.outCell(from, to), ref.out[from][to]; !slices.Equal(got, want) {
					t.Fatalf("%s round %d: queued %d->%d = %v, cell path %v", name, round, from, to, got, want)
				}
			}
		}
		words, maxPair := b.exchange()
		ref.exchange()
		if words != ref.words || maxPair != ref.maxPair {
			t.Fatalf("%s round %d: stats (%d words, max pair %d), cell path (%d, %d)",
				name, round, words, maxPair, ref.words, ref.maxPair)
		}
		checkTable(t, name, round, b, ref, sharedK(n, ops))
		for to := 0; to < n; to++ {
			var want []int
			for from := 0; from < n; from++ {
				cell := ref.in[from][to]
				if len(cell) != 0 {
					want = append(want, from)
				}
				got := b.recv(to, from)
				if !slices.Equal(got, cell) || (len(cell) == 0) != (got == nil) {
					t.Fatalf("%s round %d: recv %d<-%d = %v, cell path %v", name, round, to, from, got, cell)
				}
				if cap(got) != len(got) {
					t.Fatalf("%s round %d: recv %d<-%d has cap %d > len %d", name, round, to, from, cap(got), len(got))
				}
			}
			if got := b.senders(to, nil); !slices.Equal(got, want) {
				t.Fatalf("%s round %d: senders(%d) = %v, cell path %v", name, round, to, got, want)
			}
		}
	}
}

// w is a word list literal.
func w(words ...uint64) []uint64 { return words }

// planeCases are the scripted rounds the plane is held to the cell path
// on: every way a broadcast can meet another operation of its sender in
// one round, both overflow paths, and the degenerate cliques.
var planeCases = []struct {
	name   string
	n, wpp int
	rounds [][]planeOp
}{
	{"broadcast-only", 5, 2, [][]planeOp{
		{{'B', 0, 0, w(1, 2)}, {'B', 1, 0, w(3, 4)}, {'B', 2, 0, w(5)}, {'B', 3, 0, w(6, 7)}, {'B', 4, 0, w(8)}},
		{{'B', 2, 0, w(9)}, {'B', 4, 0, w(10, 11)}},
		{},
		{{'B', 1, 0, w(12)}},
	}},
	{"broadcast-then-send", 5, 3, [][]planeOp{
		{{'B', 1, 0, w(1)}, {'s', 1, 3, w(2, 3)}, {'B', 2, 0, w(4, 5)}, {'b', 2, 0, w(6)}, {'B', 4, 0, w(7)}},
		{{'B', 0, 0, w(8)}, {'s', 0, 4, nil}, {'b', 0, 1, nil}, {'s', 0, 2, w(9)}},
	}},
	{"send-then-broadcast", 5, 3, [][]planeOp{
		{{'s', 0, 4, w(1)}, {'B', 0, 0, w(2, 3)}, {'b', 3, 1, w(4, 5)}, {'B', 3, 0, w(6)}},
		{{'s', 2, 0, nil}, {'b', 2, 1, nil}, {'B', 2, 0, w(7, 8, 9)}},
	}},
	{"two-broadcasts", 4, 3, [][]planeOp{
		{{'B', 2, 0, w(1)}, {'B', 2, 0, w(2, 3)}, {'B', 0, 0, w(4)}, {'B', 0, 0, nil}, {'B', 0, 0, w(5)}},
		{{'B', 1, 0, w(6)}, {'B', 3, 0, w(7, 8)}},
	}},
	{"plane-overflow-lowest-peer", 4, 2, [][]planeOp{
		{{'B', 1, 0, w(1)}, {'B', 0, 0, w(2, 3, 4)}},
	}},
	{"plane-overflow-node-0", 4, 2, [][]planeOp{
		{{'B', 2, 0, w(1, 2, 3)}},
	}},
	{"spilled-overflow", 4, 2, [][]planeOp{
		{{'B', 3, 0, w(1)}},
		{{'B', 3, 0, w(1, 2)}, {'B', 3, 0, w(3)}},
	}},
	{"send-then-overflow", 4, 2, [][]planeOp{
		{{'s', 0, 2, w(1, 2)}, {'B', 0, 0, w(3)}},
	}},
	{"uniform", 4, 3, [][]planeOp{
		{{'B', 0, 0, w(1, 2)}, {'B', 1, 0, w(3, 4)}, {'B', 2, 0, w(5, 6)}, {'B', 3, 0, w(7, 8)}},
		{{'B', 3, 0, w(9)}, {'B', 1, 0, nil}, {'B', 1, 0, w(10)}, {'B', 0, 0, w(11)}, {'B', 2, 0, w(12)}},
		{{'B', 0, 0, w(1)}, {'B', 1, 0, w(2)}, {'B', 2, 0, w(3)}},
		{{'B', 0, 0, w(1)}, {'B', 1, 0, w(2)}, {'B', 2, 0, w(3, 4)}, {'B', 3, 0, w(5)}},
		{{'B', 0, 0, w(1)}, {'B', 1, 0, w(2)}, {'B', 2, 0, w(3)}, {'B', 3, 0, w(4)}, {'s', 3, 0, nil}},
		{{'B', 0, 0, w(1)}, {'B', 1, 0, w(2)}, {'B', 2, 0, w(3)}, {'B', 3, 0, w(4)}, {'b', 2, 1, nil}},
		{{'B', 0, 0, w(1)}, {'B', 1, 0, w(2)}, {'B', 2, 0, w(3)}, {'B', 3, 0, w(4)}, {'B', 0, 0, w(5)}},
		{{'B', 0, 0, w(1, 2, 3)}, {'B', 1, 0, w(4, 5, 6)}, {'B', 2, 0, w(7, 8, 9)}, {'B', 3, 0, w(1, 2, 3)}},
	}},
	{"n=1", 1, 1, [][]planeOp{
		{{'B', 0, 0, w(1, 2, 3)}},
		{{'B', 0, 0, w(4)}},
	}},
	{"n=2", 2, 2, [][]planeOp{
		{{'B', 0, 0, w(1, 2)}, {'B', 1, 0, w(3)}, {'s', 1, 0, w(4)}},
		{{'B', 1, 0, w(5)}},
		{{'b', 0, 1, w(6)}, {'B', 0, 0, w(7)}},
		{{'B', 1, 0, w(8, 9)}, {'B', 0, 0, w(10, 11)}},
	}},
}

// TestPlaneMatchesCellPath holds every mailbox layout's broadcast plane
// to the cell path, op by op, through the mailbox interface.
func TestPlaneMatchesCellPath(t *testing.T) {
	for _, c := range planeCases {
		for layout, b := range planeLayouts(c.n, c.wpp) {
			checkPlaneScript(t, c.name+"/"+layout, b, c.n, c.wpp, c.rounds)
		}
	}
}

// TestPlaneAfterReset runs a broadcast-heavy script, resets the box as
// the pool does, and holds the reused box to a fresh cell reference: no
// plane word of the earlier run may reach the next one.
func TestPlaneAfterReset(t *testing.T) {
	for _, c := range planeCases {
		if c.n < 2 {
			continue
		}
		for layout, b := range planeLayouts(c.n, c.wpp) {
			// Stop mid-run, with a plane and its shared table
			// delivered, one broadcast queued and one spilled into
			// cells.
			for from := 0; from < c.n; from++ {
				b.broadcast(from, 0, w(uint64(from)))
			}
			b.exchange()
			if b.table(1) == nil {
				t.Fatalf("%s/%s: no shared table after a uniform round", c.name, layout)
			}
			b.broadcast(1, 1, w(2))
			b.broadcast(0, 1, w(3))
			b.send(0, 1, 1, nil)
			b.reset()
			if got := b.table(1); got != nil {
				t.Fatalf("%s/%s: reset box keeps the last run's table %v", c.name, layout, got)
			}
			checkPlaneScript(t, c.name+"/reused-"+layout, b, c.n, c.wpp, c.rounds)
		}
	}
}

// TestPlaneReceiversShareOneCell pins what the plane buys: every
// receiver of a plane broadcast reads the same memory, capacity-limited
// to the broadcast.
func TestPlaneReceiversShareOneCell(t *testing.T) {
	const n = 4
	for layout, b := range planeLayouts(n, 3) {
		b.broadcast(2, 0, w(5, 6))
		b.exchange()
		first := b.recv(0, 2)
		for to := 1; to < n; to++ {
			if to == 2 {
				continue
			}
			if got := b.recv(to, 2); &got[0] != &first[0] || cap(got) != 2 {
				t.Errorf("%s: receiver %d got its own copy (cap %d)", layout, to, cap(got))
			}
		}
	}
}

// TestPlaneRunsMatchGoroutine runs the mixed broadcast rounds the plane
// spills on — Broadcast before SendBuf, and broadcast-only runs whose
// spilled row is or is not uniform — on the goroutine backend, the
// lockstep backend, and a lockstep batch, and requires the same stats,
// transcripts and error text.
func TestPlaneRunsMatchGoroutine(t *testing.T) {
	// bufThenSendBuf has the nodes that sends selects follow their
	// Broadcast with a one-word SendBuf in the same round.
	bufThenSendBuf := func(sends func(id, r int) bool) func(id int, rt NodeRuntime) {
		return func(id int, rt NodeRuntime) {
			for r := 0; r < 3; r++ {
				rt.Broadcast(id, r, []uint64{uint64(10*id + r)})
				if to := (id + r + 1) % 6; sends(id, r) && to != id {
					copy(rt.SendBuf(id, r, to, 1), []uint64{99})
				}
				rt.Barrier(id)
			}
		}
	}
	// spilledRow broadcasts a word then sends node 3 a second one, so
	// node 1's row is spilled and uneven; uniform sends every peer the
	// same second word, spilled but still a broadcast.
	spilledRow := func(uniform bool) func(id int, rt NodeRuntime) {
		return func(id int, rt NodeRuntime) {
			rt.Broadcast(id, 0, []uint64{uint64(id)})
			if id == 1 {
				for to := 0; to < 6; to++ {
					if to != id && (uniform || to == 3) {
						rt.Send(id, 0, to, []uint64{7})
					}
				}
			}
			rt.Barrier(id)
		}
	}
	for _, c := range []struct {
		name    string
		cfg     Config
		body    func(id int, rt NodeRuntime)
		wantErr string
	}{
		{"broadcastbuf-then-sendbuf", Config{N: 6, WordsPerPair: 2},
			bufThenSendBuf(func(id, r int) bool { return id%2 == r%2 }), ""},
		// One violator: the goroutine backend reports whichever
		// violation it sees first.
		{"broadcastbuf-then-sendbuf-over-budget", Config{N: 6, WordsPerPair: 1},
			bufThenSendBuf(func(id, r int) bool { return id == 4 }), "node 4 round 0: bandwidth exceeded sending 2 words to 5"},
		{"broadcast-only-spilled-uneven", Config{N: 6, WordsPerPair: 2, BroadcastOnly: true}, spilledRow(false), "node 1 round 0: broadcast-only"},
		{"broadcast-only-spilled-uniform", Config{N: 6, WordsPerPair: 2, BroadcastOnly: true}, spilledRow(true), ""},
	} {
		c.cfg.RecordTranscript = true
		gres, gerr := goroutineBackend{}.Run(c.cfg, c.body)
		if (gerr == nil) != (c.wantErr == "") || (gerr != nil && !strings.Contains(gerr.Error(), c.wantErr)) {
			t.Fatalf("%s: goroutine err = %v, want %q", c.name, gerr, c.wantErr)
		}
		lres, lerr := lockstepBackend{}.Run(c.cfg, c.body)
		bres, berrs := lockstepBackend{}.RunBatch(c.cfg, 2, func(_, id int, rt NodeRuntime) { c.body(id, rt) })
		for i, got := range []struct {
			res *Result
			err error
		}{{lres, lerr}, {bres[0], berrs[0]}, {bres[1], berrs[1]}} {
			if fmt.Sprint(got.err) != fmt.Sprint(gerr) {
				t.Fatalf("%s lockstep #%d: err %v, goroutine %v", c.name, i, got.err, gerr)
			}
			if gerr == nil && (got.res.Stats != gres.Stats || !reflect.DeepEqual(got.res.Transcripts, gres.Transcripts)) {
				t.Fatalf("%s lockstep #%d: stats %+v, goroutine %+v (or transcripts differ)", c.name, i, got.res.Stats, gres.Stats)
			}
		}
	}
}
