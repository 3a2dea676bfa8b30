package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
)

const (
	// hitBlock is the requests per block; wall_s is the median block
	// wall, and p99_ms the median of the blocks' p99s.
	hitBlock = p99Window
	// hitSeeds is the number of seeds per (algorithm, n) key shape.
	hitSeeds = 256
	// hitReplay caps the requests the traced pass replays by stage.
	hitReplay = 4000
)

// serveHit is the read path. Set-up computes every key once through a
// first server, closes it, and reopens the ledger under a new server
// with an empty 256-entry memory cache; the timed phase then asks for
// keys by a Zipf(1.1) ranking, so the head is answered from memory and
// the tail from ledger.Get with its CRC check. Nothing is simulated.
type serveHit struct {
	in *instance
	serveLoad
	keys   []*adhoc
	want   map[*adhoc][]byte // each key's body as set-up recorded it
	openMS float64
	diff   int // bodies that differ from want
}

func (h *serveHit) setup(e *env) error {
	seeds := hitSeeds
	h.block, h.keep = hitBlock, hitReplay
	if e.toy {
		seeds, h.block = 16, 100
	}
	rng := rand.New(rand.NewPCG(e.seed, 3))
	h.keys = h.keys[:0]
	shapes := 0
	for _, alg := range []string{"exchange", "k-vc"} {
		for _, n := range []int{32, 64} {
			for j := 0; j < seeds; j++ {
				q, err := newAdhoc(alg, n, rng.Uint64())
				if err != nil {
					return err
				}
				h.keys = append(h.keys, q)
			}
			shapes++
		}
	}
	// The seed shuffles the keys within each shape, and the shapes take
	// turns down the ranking, so every seed puts the same shapes, with
	// the same body sizes, at the same ranks.
	rank := make([]int, len(h.keys))
	for s := 0; s < shapes; s++ {
		for j, k := range rng.Perm(seeds) {
			rank[j*shapes+s] = s*seeds + k
		}
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(h.keys)-1))
	h.next = func() (*adhoc, error) { return h.keys[rank[zipf.Uint64()]], nil }
	// Bodies are compared on arrival rather than kept: the timed phase
	// answers a hundred thousand of them.
	h.check = func(q *adhoc, data []byte) {
		if !bytes.Equal(data, h.want[q]) {
			h.diff++
		}
	}
	var err error
	if h.in, err = newInstance(e, "serve-hit"); err != nil {
		return err
	}
	if err := h.populate(e); err != nil {
		h.teardown()
		return err
	}
	return nil
}

// populate computes every key through the first server, then reopens
// the ledger under the server the timed phase uses.
func (h *serveHit) populate(e *env) error {
	got := make([][]byte, len(h.keys))
	_, errs := closedLoop(len(h.keys), e.procs, func(i, lane int) error {
		q := h.keys[i]
		hash, data, _, err := h.in.d.exchange(q, lane, nil)
		if err == nil && hash != q.hash {
			err = fmt.Errorf("header %q, client hash %q", hash, q.hash)
		}
		got[i] = data
		return err
	})
	if err := firstError(errs); err != nil {
		return fmt.Errorf("computing the keys: %w", err)
	}
	h.want = make(map[*adhoc][]byte, len(h.keys))
	for i, q := range h.keys {
		h.want[q] = got[i]
	}
	open, err := h.in.reopen(e)
	if err != nil {
		return err
	}
	h.openMS = ms(open)
	if n := h.in.led.Len(); n != int64(len(h.keys)) {
		return fmt.Errorf("reopened ledger holds %d records, want %d", n, len(h.keys))
	}
	return nil
}

func (h *serveHit) teardown() {
	h.in.close()
	h.in = nil
}

func (h *serveHit) run(e *env, sp *spanLog) (phaseOut, error) {
	h.diff = 0
	return h.serveLoad.run(e, h.in.d, sp)
}

func (h *serveHit) verify(e *env, out phaseOut, sp *spanLog, o *outcome) error {
	simulated := (h.after.CacheMisses - h.before.CacheMisses) - (h.after.LedgerHits - h.before.LedgerHits)
	jobs := h.after.JobsDone - h.before.JobsDone
	o.check("no_simulation", simulated == 0 && jobs == 0,
		"%d requests missed both tiers and %d jobs ran", simulated, jobs)
	h.serveLoad.verify(o)
	diff := h.diff
	o.failed += diff
	o.check("bodies_equal_setup_bytes", diff == 0, "%d bodies differ from the bytes set-up recorded", diff)
	if sp == nil {
		return nil
	}
	hits := h.after.CacheHits - h.before.CacheHits
	total := hits + h.after.CacheMisses - h.before.CacheMisses
	if total > 0 {
		o.layers["serve.mem_hit_ratio"] = float64(hits) / float64(total)
		o.layers["serve.ledger_hit_ratio"] = float64(h.after.LedgerHits-h.before.LedgerHits) / float64(total)
	}
	o.layers["ledger.open_ms"] = h.openMS
	return h.replay(sp, out, o)
}

// replay times the read path's stages through their public calls: the
// decode and hash every request pays, and ledger.Get with its CRC
// check, which the requests missing the memory cache pay. At the
// median the request is a memory hit, so the client p50 minus the hash
// p50 is what HTTP and the cache lookup cost.
func (h *serveHit) replay(sp *spanLog, out phaseOut, o *outcome) error {
	for i := 0; i < min(len(h.reqs), hitReplay); i++ {
		q := h.reqs[i]
		root := sp.begin("replay", q.hash, -1, 0)
		s := sp.begin("serve.hash", q.hash, root, 0)
		hash, err := requestHash(q.body)
		sp.end(s)
		if err != nil {
			return err
		}
		s = sp.begin("ledger.get", q.hash, root, 0)
		data, err := h.in.led.Get(hash)
		sp.end(s)
		sp.end(root)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, h.want[q]) {
			return fmt.Errorf("ledger.Get(%s) differs from the bytes set-up recorded", hash)
		}
	}
	hashMS := median(sp.durations("serve.hash"))
	gets := sp.durations("ledger.get")
	o.layers["serve.hash_us"] = 1000 * hashMS
	o.layers["ledger.get_p50_us"] = 1000 * median(gets)
	p99, _ := percentile(gets, 99)
	o.layers["ledger.get_p99_us"] = 1000 * p99
	o.layers["serve.http_overhead_p50_ms"] = median(out.latency) - hashMS
	return nil
}
