package comm

import (
	"repro/internal/bitvec"
	"repro/internal/clique"
	"repro/internal/trace"
)

// Run is a run of equal streams into one destination of a TwoHop
// exchange: the Count senders From, From+Stride, … each owe the
// destination Len words. A destination's input is its streams laid end
// to end in sender order, so word y of the run's m-th stream sits at
// position z = Z + m·Len + y, Z being the length of the destination's
// earlier runs, and it travels through node (z + Shift) mod n.
type Run struct {
	From, Stride, Count, Len, Shift int
}

// index returns the position of sender s in the run.
func (r *Run) index(s int) (m int, ok bool) {
	d := s - r.From
	if d < 0 {
		return 0, false
	}
	if r.Stride != 1 {
		if d%r.Stride != 0 {
			return 0, false
		}
		d /= r.Stride
	}
	return d, d < r.Count
}

// Plan is the traffic of a TwoHop exchange: the runs into every
// destination, a function of constants every node knows. It is never
// modified once built, so one plan can serve every node of a run; what
// a node needs of it, TwoHop derives at every call.
type Plan struct {
	n    int
	runs []planRun
	// at[t] .. at[t+1] are destination t's runs.
	at []int
	// owedAt[s] .. owedAt[s+1] are the streams s owes, in destination
	// order.
	owedAt []int
	owed   []owedStream
	// load1 and load2 are the most words any link carries in hop 1
	// and in hop 2.
	load1, load2 int
}

// owedStream is one stream of a sender: to destination t, len words
// from position z of t's input, the first through node via.
type owedStream struct{ t, z, len, via int32 }

// planRun is a Run with its destination t and the positions
// [a, a + Count·Len) it fills in t's input. Word z of them travels through node
// (z + Shift) mod n, so node v carries the words a + r, a + r + n, …,
// r = (v + first) mod n: full of them, and one more when r < rem. And
// n = nq·Len + nr, so that a walk through the run in steps of n tracks
// its stream and offset without dividing.
type planRun struct {
	Run
	t, a, first, full, rem, nq, nr int
}

// on returns the run's words that go through node v: positions
// a + r, a + r + n, …, k of them.
func (r *planRun) on(v, n int) (off, k int) {
	if off = v + r.first; off >= n {
		off -= n
	}
	if k = r.full; off < r.rem {
		k++
	}
	return off, k
}

// stream returns which of the run's streams holds its word at offset
// off, and where in the stream.
func (r *planRun) stream(off int) (m, y int) {
	if off < r.Len {
		return 0, off
	}
	return off / r.Len, off % r.Len
}

// NewPlan builds the plan whose destination t receives the runs
// runsOf(t, buf) appends to buf, in sender order; runs of no words are
// dropped. It also lists every sender's streams and finds each hop's
// heaviest link, which fixes the exchange's rounds at every node
// (Rounds): O(n² + streams), once per plan.
func NewPlan(n int, runsOf func(t int, buf []Run) []Run) *Plan {
	p := &Plan{n: n, at: make([]int, n+1), owedAt: make([]int, n+1)}
	var buf []Run
	for t := range n {
		buf = runsOf(t, buf[:0])
		z := 0
		for _, r := range buf {
			if r.Count <= 0 || r.Len <= 0 {
				continue
			}
			r.Stride = max(r.Stride, 1)
			r.Shift = (r.Shift%n + n) % n
			w := r.Count * r.Len
			p.runs = append(p.runs, planRun{Run: r, t: t, a: z, first: ((-r.Shift-z)%n + n) % n,
				full: w / n, rem: w % n, nq: n / r.Len, nr: n % r.Len})
			z += w
			for m := range r.Count {
				p.owedAt[r.From+m*r.Stride+1]++
			}
		}
		p.at[t+1] = len(p.runs)
	}
	for s := range n {
		p.owedAt[s+1] += p.owedAt[s]
	}
	p.owed = make([]owedStream, p.owedAt[n])
	next := append([]int(nil), p.owedAt[:n]...)
	for t := range n {
		for i := p.at[t]; i < p.at[t+1]; i++ {
			r := &p.runs[i]
			for m := range r.Count {
				s, z := r.From+m*r.Stride, r.a+m*r.Len
				p.owed[next[s]] = owedStream{int32(t), int32(z), int32(r.Len), int32((z + r.Shift) % n)}
				next[s]++
			}
		}
	}

	diff := make([]int, n+1)
	for v := range n {
		clear(diff)
		p.outbound(v, diff)
		p.load1 = max(p.load1, loads(diff, v))
		clear(diff)
		p.inbound(v, diff)
		p.load2 = max(p.load2, loads(diff, v))
	}
	return p
}

// outbound adds to the difference array d the words node s sends
// through each node in hop 1, its own stream aside.
func (p *Plan) outbound(s int, d []int) {
	for _, st := range p.owedBy(s) {
		if int(st.t) != s {
			addCircular(d, int(st.via), int(st.len))
		}
	}
}

// inbound adds to the difference array d the words of destination t's
// input that travel through each node; t's own stream never travels.
func (p *Plan) inbound(t int, d []int) {
	for i := p.at[t]; i < p.at[t+1]; i++ {
		r := &p.runs[i]
		if m, ok := r.index(t); ok {
			addCircular(d, r.a+r.Shift, m*r.Len)
			addCircular(d, r.a+(m+1)*r.Len+r.Shift, (r.Count-m-1)*r.Len)
		} else {
			addCircular(d, r.a+r.Shift, r.Count*r.Len)
		}
	}
}

// Rounds is the number of rounds a TwoHop exchange over p takes at
// wpp words per pair: ceil(load1 / wpp) + ceil(load2 / wpp), load1 and
// load2 being the most words any link carries in each hop.
func (p *Plan) Rounds(wpp int) int {
	return (p.load1+wpp-1)/wpp + (p.load2+wpp-1)/wpp
}

func (p *Plan) owedBy(s int) []owedStream { return p.owed[p.owedAt[s]:p.owedAt[s+1]] }

// inputLen is the length of destination t's input: the end of its last
// run.
func (p *Plan) inputLen(t int) int {
	if i := p.at[t+1]; i > p.at[t] {
		r := &p.runs[i-1]
		return r.a + r.Count*r.Len
	}
	return 0
}

// relayCounts counts the words that travel through node v, word z of
// destination t's input from sender s != t: from[s+1] gains those from
// each sender s != v, fwd[t+1] those to each destination t != v.
func (p *Plan) relayCounts(v int, from, fwd []int) {
	n := p.n
	for i := range p.runs {
		r := &p.runs[i]
		off, k := r.on(v, n)
		if k == 0 {
			continue
		}
		// The run's m-th stream holds the word; each step adds n to its
		// position.
		m, y := r.stream(off)
		relayed := 0
		for ; k > 0; k-- {
			if s := r.From + m*r.Stride; s != r.t {
				relayed++
				if s != v {
					from[s+1]++
				}
			}
			if m, y = m+r.nq, y+r.nr; y >= r.Len {
				m, y = m+1, y-r.Len
			}
		}
		if r.t != v {
			fwd[r.t+1] += relayed
		}
	}
}

// relayFill walks the same words as relayCounts, in destination order
// and by position within each destination's input, and moves each from
// its sender's hop-1 words to its destination: into fwd, the hop-2
// streams end to end, or, when v is the destination, into in. The words
// from s are relay[next[s]:] and those v sends through itself are held,
// each in the order its sender staged them: by destination, then by
// word, which is the walk's order too.
func relayFill[W ~uint64 | ~int64](p *Plan, v int, next []int, relay, held, fwd []uint64, in []W) {
	n, f := p.n, 0
	for i := range p.runs {
		r := &p.runs[i]
		off, k := r.on(v, n)
		if k == 0 {
			continue
		}
		m, y := r.stream(off)
		for z := r.a + off; k > 0; z, k = z+n, k-1 {
			if s := r.From + m*r.Stride; s != r.t {
				var w uint64
				if s == v {
					w, held = held[0], held[1:]
				} else {
					w = relay[next[s]]
					next[s]++
				}
				if r.t == v {
					in[z] = W(w)
				} else {
					fwd[f] = w
					f++
				}
			}
			if m, y = m+r.nq, y+r.nr; y >= r.Len {
				m, y = m+1, y-r.Len
			}
		}
	}
}

// arrivals follows, for every link into destination v, the positions
// of v's input that the link fills in hop 2, in the order it fills
// them: run by run, the positions whose intermediate is the link's
// node, each n after the last, except those of v's own stream, which
// never travels. Words whose intermediate is v arrive in hop 1 instead.
type arrivals struct {
	p            *Plan
	ownLo, ownHi int
	// count[u] is the number of words u passes v; run[u] and z[u] are
	// the run and the position its next word fills.
	count, run, z []int
}

// arrivals counts each link's words as NewPlan does to find the
// hop-2 loads, and starts each link's cursor at its first position.
func (p *Plan) arrivals(v, ownLo, ownHi int) *arrivals {
	n := p.n
	tables := make([]int, 3*(n+1))
	a := &arrivals{p: p, ownLo: ownLo, ownHi: ownHi,
		count: tables[:n+1], run: tables[n+1 : 2*(n+1)], z: tables[2*(n+1):]}
	p.inbound(v, a.count)
	loads(a.count, v)
	a.count[v] = 0
	if i := p.at[v]; i < p.at[v+1] {
		for u := range n {
			off, _ := p.runs[i].on(u, n)
			a.run[u], a.z[u] = i, p.runs[i].a+off
		}
	}
	return a
}

// place stores got, u's next words, at the positions they fill.
func place[W ~uint64 | ~int64](a *arrivals, u int, got []uint64, in []W) {
	n, runs, i, z := a.p.n, a.p.runs, a.run[u], a.z[u]
	end := runs[i].a + runs[i].Count*runs[i].Len
	for _, w := range got {
		for z >= end || z >= a.ownLo && z < a.ownHi {
			if z < end {
				z += n
				continue
			}
			i++
			off, _ := runs[i].on(u, n)
			z, end = runs[i].a+off, runs[i].a+runs[i].Count*runs[i].Len
		}
		in[z] = W(w)
		z += n
	}
	a.run[u], a.z[u] = i, z
}

// addCircular adds one at positions start, start+1, …, start+k-1, all
// mod n, to the difference array d of length n+1.
func addCircular(d []int, start, k int) {
	n := len(d) - 1
	if k <= 0 {
		return
	}
	d[0] += k / n
	d[n] -= k / n
	start %= n
	end := start + k%n
	d[start]++
	if end <= n {
		d[end]--
		return
	}
	d[n]--
	d[0]++
	d[end-n]--
}

// loads turns the difference array d into per-position counts, in
// place, and returns the largest count at a position other than skip.
func loads(d []int, skip int) int {
	best, run := 0, 0
	for v := range len(d) - 1 {
		run += d[v]
		d[v] = run
		if v != skip {
			best = max(best, run)
		}
	}
	return best
}

// TwoHop is the fixed-traffic personalised exchange, routed in two
// hops. out holds the streams this node owes, laid end to end in
// destination order as p's runs describe them (its own stream
// included), and TwoHop returns this node's input: its streams laid end
// to end in sender order, own stream included. Word y of the stream
// from s to t, at position z of t's input, travels through node
// v = (z + Shift) mod n of its run; a word whose v is its sender skips
// hop 1 and one whose v is its destination skips hop 2.
//
// Every word moves on its own, at a position both ends derive from p:
// no headers, no length round. Each link carries its words in a fixed
// order, hop 1 by destination and hop 2 by sender, and a link that
// carries more or fewer words than p fixes fails the run. Each call
// derives its node's share of p afresh, with no index per word: a
// sender stages its hop-1 words by intermediate in one pass over out;
// an intermediate copies each link's hop-1 words as they come and,
// after the hop, sorts them by destination in one walk of the plan;
// and a destination places each hop-2 word straight from the engine's
// receive view, following each link's positions with a cursor. Beyond
// moving its words, a node spends O(n + runs) on its share, runs
// counting p's runs, plus O(1) per word it carries for others. Rounds:
// p.Rounds(wpp) at every node.
//
// W is the word type: uint64, or int64 entries moved bit for bit, so a
// caller of signed data needs no conversion on either side.
func TwoHop[W ~uint64 | ~int64](nd clique.Endpoint, p *Plan, out []W) []W {
	n, me := nd.N(), nd.ID()
	if p.n != n {
		nd.Fail("comm: TwoHop plan is for %d nodes, the clique has %d", p.n, n)
	}

	// My streams, in destination order, and my own among them.
	owed := p.owedBy(me)
	owes := 0
	var own struct{ off, z, len int }
	for _, st := range owed {
		if int(st.t) == me {
			own.off, own.z, own.len = owes, int(st.z), int(st.len)
		}
		owes += int(st.len)
	}
	if len(out) != owes {
		nd.Fail("comm: TwoHop given %d words, the plan has this node owe %d", len(out), owes)
	}
	defer trace.Op(nd, "TwoHop", owes-own.len)()

	// stage[at[u]:at[u+1]] are my hop-1 words through u, in their order
	// on the link, and at[me]:at[me+1] the words I carry myself.
	// relay[from[s]:from[s+1]] are the hop-1 words I carry for s, and
	// fwd[fwdAt[t]:fwdAt[t+1]] the hop-2 words I pass on to t.
	tables := make([]int, 5*(n+1))
	at, next := tables[:n+1], tables[n+1:2*(n+1)]
	from, fwdAt := tables[2*(n+1):3*(n+1)], tables[3*(n+1):4*(n+1)]
	p.outbound(me, at)
	loads(at, -1) // differences to counts
	for u, sum := 0, 0; u <= n; u++ {
		at[u], sum = sum, sum+at[u]
	}
	p.relayCounts(me, from, fwdAt)
	for u := range n {
		from[u+1] += from[u]
		fwdAt[u+1] += fwdAt[u]
	}
	words := bitvec.GetWords(at[n] + from[n] + fwdAt[n])
	defer bitvec.PutWords(words)
	stage, relay, fwd := words[:at[n]], words[at[n]:at[n]+from[n]], words[at[n]+from[n]:]

	copy(next, at)
	lo := 0 // where the stream starts in out
	for _, st := range owed {
		if u := int(st.via); int(st.t) != me {
			for _, w := range out[lo : lo+int(st.len)] {
				stage[next[u]] = uint64(w)
				next[u]++
				if u++; u == n {
					u = 0
				}
			}
		}
		lo += int(st.len)
	}

	wpp := nd.WordsPerPair()
	senders := tables[4*(n+1) : 4*(n+1) : 5*(n+1)]
	for lo := 0; lo < p.load1; lo += wpp {
		hi := lo + wpp
		for u := range n {
			if ws := stage[at[u]:at[u+1]]; u != me && len(ws) > lo {
				copy(nd.SendBuf(u, min(len(ws), hi)-lo), ws[lo:])
			}
		}
		nd.Tick()
		senders = receive(nd, 1, lo, hi, func(s int) int { return from[s+1] - from[s] }, senders, func(s int, got []uint64) {
			copy(relay[from[s]+lo:], got)
		})
	}

	// Hop 1 is in: sort the relayed words by destination, mine
	// straight into my input.
	in := make([]W, p.inputLen(me))
	copy(in[own.z:], out[own.off:own.off+own.len])
	copy(next, from[:n])
	relayFill(p, me, next, relay, stage[at[me]:at[me+1]], fwd, in)

	// As destination: each link's hop-2 words fill my input at the
	// positions its cursor follows.
	arr := p.arrivals(me, own.z, own.z+own.len)
	for lo := 0; lo < p.load2; lo += wpp {
		hi := lo + wpp
		for u := range n {
			if k := fwdAt[u+1] - fwdAt[u]; k > lo {
				copy(nd.SendBuf(u, min(k, hi)-lo), fwd[fwdAt[u]+lo:])
			}
		}
		nd.Tick()
		senders = receive(nd, 2, lo, hi, func(u int) int { return arr.count[u] }, senders, func(u int, got []uint64) {
			place(arr, u, got, in)
		})
	}
	return in
}

// receive takes one round of a hop: each link p owes the words
// [lo, hi) of the owed(p) it carries in the hop, and place(p, got)
// stores them. A link that carries any other number of words fails the
// run.
func receive(nd clique.Endpoint, hop, lo, hi int, owed func(p int) int, senders []int, place func(p int, got []uint64)) []int {
	senders = nd.Senders(senders[:0])
	for _, p := range senders {
		got := nd.Recv(p)
		if want := min(owed(p), hi) - lo; len(got) != want {
			nd.Fail("comm: TwoHop hop %d got %d words from %d in a round, the plan has %d", hop, len(got), p, max(want, 0))
		}
		place(p, got)
	}
	// Every peer that spoke sent its share, so a shortfall in their
	// number is a peer that owed words and stayed silent.
	expect := 0
	for p := range nd.N() {
		if owed(p) > lo {
			expect++
		}
	}
	if len(senders) != expect {
		for p := range nd.N() {
			if owed(p) > lo && len(nd.Recv(p)) == 0 {
				nd.Fail("comm: TwoHop hop %d got 0 words from %d in a round, the plan has %d", hop, p, min(owed(p), hi)-lo)
			}
		}
	}
	return senders
}
