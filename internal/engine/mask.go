package engine

import "math/bits"

// activity is the lockstep mailbox's record of who sent to whom: one
// bit per ordered pair, set exactly when the pair's cell is non-empty.
// Both storage layouts embed it, so receivers and the scheduler can
// iterate only the pairs that actually spoke instead of probing all n
// senders — silence costs nothing, as in the model.
//
// Senders write the sender-major mask `out` while a round is queued:
// row `from` (w words) is touched only by node from's own coroutine, so
// no atomics are needed. At exchange the scheduler swaps it into `in`
// (the delivered round) and transposes `in` into the receiver-major
// mask `rcv`, which node `to` reads as its ascending sender list.
type activity struct {
	n, w int      // nodes; words per mask row, ceil(n/64)
	out  []uint64 // sender-major, queued round: out[from*w + to/64] bit to%64
	in   []uint64 // sender-major, delivered round
	rcv  []uint64 // receiver-major, delivered round: rcv[to*w + from/64] bit from%64
}

// maskWords is the length of one n-node mask: n rows of ceil(n/64) words.
func maskWords(n int) int { return n * ((n + 63) / 64) }

// newActivity carves the three masks out of buf, which must hold
// 3*maskWords(n) zeroed words.
func newActivity(n int, buf []uint64) activity {
	m := maskWords(n)
	return activity{
		n: n, w: (n + 63) / 64,
		out: buf[:m:m],
		in:  buf[m : 2*m : 2*m],
		rcv: buf[2*m : 3*m : 3*m],
	}
}

// mark records a non-empty (from, to) cell in the queued round.
func (a *activity) mark(from, to int) {
	a.out[from*a.w+to>>6] |= 1 << uint(to&63)
}

// idle reports whether from has marked no link in the queued round,
// i.e. queued no word yet.
func (a *activity) idle(from int) bool {
	for _, x := range a.out[from*a.w : from*a.w+a.w] {
		if x != 0 {
			return false
		}
	}
	return true
}

// markAll records a non-empty cell on every outgoing link of from: the
// row is filled word by word, with from's own bit and the bits past n
// left clear.
func (a *activity) markAll(from int) {
	row := a.out[from*a.w : from*a.w+a.w]
	for j := range row {
		row[j] = ^uint64(0)
	}
	if r := a.n & 63; r != 0 {
		row[a.w-1] = 1<<uint(r) - 1
	}
	row[from>>6] &^= 1 << uint(from&63)
}

// deliver swaps the queued round in and rebuilds the receiver-major
// mask from it. Afterwards out holds the previous delivered round's
// sender rows, which the caller retires (see retire) before the next
// round is queued. Cost: O(n²/64) words, a 64x64 tile transpose per
// pair of sender and receiver blocks.
func (a *activity) deliver() {
	a.out, a.in = a.in, a.out
	clear(a.rcv)
	n, w := a.n, a.w
	var tile [64]uint64
	for sb := 0; sb < w; sb++ {
		rows := min(64, n-sb*64)
		for rb := 0; rb < w; rb++ {
			src := a.in[sb*64*w+rb:]
			var nz uint64
			for i := 0; i < rows; i++ {
				tile[i] = src[i*w]
				nz |= tile[i]
			}
			if nz == 0 {
				continue
			}
			for i := rows; i < 64; i++ {
				tile[i] = 0
			}
			transpose64(&tile)
			cols := min(64, n-rb*64)
			dst := a.rcv[rb*64*w+sb:]
			for j := 0; j < cols; j++ {
				dst[j*w] = tile[j]
			}
		}
	}
}

// retire clears sender from's row of the retired mask and reports
// whether it had any bit set, i.e. whether from spoke in that round.
func (a *activity) retire(from int) bool {
	row := a.out[from*a.w : from*a.w+a.w]
	var nz uint64
	for _, x := range row {
		nz |= x
	}
	if nz == 0 {
		return false
	}
	clear(row)
	return true
}

// senders appends the ids that sent to `to` in the delivered round to
// buf, ascending.
func (a *activity) senders(to int, buf []int) []int {
	for j, x := range a.rcv[to*a.w : to*a.w+a.w] {
		for x != 0 {
			buf = append(buf, j<<6|bits.TrailingZeros64(x))
			x &= x - 1
		}
	}
	return buf
}

// reset clears every mask, for a pooled box's next run.
func (a *activity) reset() {
	clear(a.out)
	clear(a.in)
	clear(a.rcv)
}

// transpose64 transposes a 64x64 bit tile in place: bit c of word r
// moves to bit r of word c. Rows are little-endian (bit i = column i),
// so the classic recursive block-swap runs with the shift directions
// mirrored: at each level the high half-columns of the low rows swap
// with the low half-columns of the high rows. 6 levels x 32 swaps,
// branch-free, no memory beyond the tile itself (Hacker's Delight 7-3,
// adapted to LSB-first bit order).
func transpose64(a *[64]uint64) {
	j := 32
	m := uint64(0x00000000FFFFFFFF)
	for j != 0 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k|j]) & m
			a[k] ^= t << uint(j)
			a[k|j] ^= t
		}
		j >>= 1
		m ^= m << uint(j)
	}
}
