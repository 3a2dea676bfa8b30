package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"

	"repro/internal/clique"
	"repro/internal/exp"
	"repro/internal/ledger"
	"repro/internal/trace"
	"repro/internal/workload"
)

// missAlgs are the serve-miss algorithms. apsp, maxis and k-ds are left
// out: each takes 0.4–1.1 s at n = 128, which would turn p99 into a
// measure of three local searches; the registry workload covers them.
var missAlgs = []string{"exchange", "k-vc", "triangle", "k-is", "boolmm-naive", "boolmm-3d",
	"mst", "mst-sketch", "mst-sparse"}

const (
	// missMinOps is the fewest requests a timed phase sends, so that p99
	// has ten samples beyond it however slow the host is.
	missMinOps = p99Window
	// missSampleEvery: every this-many-th answer is rerun directly.
	missSampleEvery = 8
	// replayCount caps the requests the traced pass replays by stage.
	replayCount = 360
)

// serveMiss is the write path: every request is a fresh seed, so it
// misses both cache tiers and goes decode, hash, ledger miss, queue,
// exp, engine, envelope, then ledger append with fsync.
type serveMiss struct {
	in *instance
	serveLoad
}

func (m *serveMiss) setup(e *env) error {
	ns := []int{64, 128}
	m.minOps = missMinOps
	if e.toy {
		ns, m.minOps = []int{16, 32}, 0
	}
	var shapes []adhoc
	for _, alg := range missAlgs {
		for _, n := range ns {
			shapes = append(shapes, adhoc{alg: alg, n: n})
		}
	}
	// A block holds every shape once, so wall_s is the wall of one
	// request of each shape, back to back.
	m.next, m.block = mixStream(rand.New(rand.NewPCG(e.seed, 1)), shapes), len(shapes)
	// Every answer is kept: a sample of them is rerun directly.
	m.keep = math.MaxInt
	// One request per shape, on seeds the timed phase never uses, so the
	// engine pools start warm as in a daemon that has been running.
	warm := mixStream(rand.New(rand.NewPCG(e.seed, 2)), shapes)
	var err error
	if m.in, err = newInstance(e, "serve-miss"); err != nil {
		return err
	}
	for range shapes {
		q, err := warm()
		if err == nil {
			_, _, err = m.in.d.post(q.body)
		}
		if err != nil {
			m.teardown()
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (m *serveMiss) teardown() {
	m.in.close()
	m.in = nil
}

// mixStream returns a stream of requests over shapes with fresh seeds.
// Each run of len(shapes) requests holds every shape once in a seeded
// order, so every seed sees the same mix.
func mixStream(rng *rand.Rand, shapes []adhoc) func() (*adhoc, error) {
	var perm []int
	return func() (*adhoc, error) {
		if len(perm) == 0 {
			perm = rng.Perm(len(shapes))
		}
		s := shapes[perm[0]]
		perm = perm[1:]
		return newAdhoc(s.alg, s.n, rng.Uint64())
	}
}

func (m *serveMiss) run(e *env, sp *spanLog) (phaseOut, error) {
	return m.serveLoad.run(e, m.in.d, sp)
}

func (m *serveMiss) verify(e *env, out phaseOut, sp *spanLog, o *outcome) error {
	m.serveLoad.verify(o)
	mismatch, sampled := 0, 0
	var firstErr error
	for i := 0; i < len(m.reqs); i += missSampleEvery {
		sampled++
		if err := envelopeMatchesRun(m.reqs[i], m.data[i]); err != nil {
			mismatch++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	o.failed += mismatch
	o.check("sampled_envelopes_equal_direct_runs", mismatch == 0 && sampled > 0,
		"%d of %d sampled envelopes: %v", mismatch, sampled, firstErr)
	if sp == nil {
		return nil
	}
	o.layers["serve.queue_wait_mean_ms"] = histMeanMS(m.before.QueueWait, m.after.QueueWait)
	o.layers["serve.run_wall_mean_ms"] = histMeanMS(m.before.RunWall, m.after.RunWall)
	return m.replay(e, sp, out, o)
}

// envelopeMatchesRun compares an answer's model cost with a direct
// clique.Run of the same request.
func envelopeMatchesRun(q *adhoc, data []byte) error {
	var env struct {
		Experiments []struct {
			Sim exp.SimCost `json:"sim"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &env); err != nil || len(env.Experiments) != 1 {
		return fmt.Errorf("%s n=%d seed=%d: unreadable envelope (%v)", q.alg, q.n, q.seed, err)
	}
	alg, _ := workload.Get(q.alg)
	res, err := clique.Run(clique.Config{N: q.n, WordsPerPair: alg.WPP, Backend: "lockstep"}, alg.Make(q.n, q.seed))
	if err != nil {
		return err
	}
	got := env.Experiments[0].Sim
	if got.Rounds != int64(res.Stats.Rounds) || got.Words != res.Stats.WordsSent {
		return fmt.Errorf("%s n=%d seed=%d: envelope %d rounds/%d words, direct run %d/%d",
			q.alg, q.n, q.seed, got.Rounds, got.Words, res.Stats.Rounds, res.Stats.WordsSent)
	}
	return nil
}

// replay sends the first replayCount requests again through the public
// calls the miss path makes, one stage at a time, into a ledger of its
// own: decode and hash, instance generation, the engine run, envelope
// marshalling and the fsync'd append. The client p50 minus the stage
// p50s is what HTTP, queueing and scheduling cost.
func (m *serveMiss) replay(e *env, sp *spanLog, out phaseOut, o *outcome) error {
	dir, err := os.MkdirTemp(e.tmp, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	led, _, err := ledger.Open(filepath.Join(dir, "ledger"))
	if err != nil {
		return err
	}
	defer led.Close()
	var traces []*trace.RunTrace
	for i := 0; i < min(len(m.reqs), replayCount); i++ {
		q, data := m.reqs[i], m.data[i]
		alg, _ := workload.Get(q.alg)
		root := sp.begin("replay", q.hash, -1, 0)
		s := sp.begin("serve.hash", q.hash, root, 0)
		hash, err := requestHash(q.body)
		sp.end(s)
		if err != nil {
			return err
		}
		s = sp.begin("graph.make", q.hash, root, 0)
		prog := alg.Make(q.n, q.seed)
		sp.end(s)
		cfg := clique.Config{N: q.n, WordsPerPair: alg.WPP, Backend: "lockstep"}
		s = sp.begin("engine.run", q.hash, root, 0)
		_, err = clique.Run(cfg, prog)
		sp.end(s)
		if err != nil {
			return err
		}
		var rep exp.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return err
		}
		var buf bytes.Buffer
		s = sp.begin("exp.envelope", q.hash, root, 0)
		err = exp.NewReport(rep.Backend, exp.Options{Backend: rep.Backend}, rep.Experiments, exp.Timing{}, false).WriteJSON(&buf)
		sp.end(s)
		if err != nil {
			return err
		}
		s = sp.begin("ledger.append", q.hash, root, 0)
		err = led.Append(hash, buf.Bytes())
		sp.end(s)
		if err != nil {
			return err
		}
		sp.end(root)
		// The engine stage once more under a collector, for the split
		// into node compute and exchange; its wall is not a stage.
		col := trace.NewCollector(q.hash, q.n, alg.WPP)
		col.SetBackend(cfg.Backend)
		cfg.Tracer = col
		if _, err := clique.Run(cfg, alg.Make(q.n, q.seed)); err != nil {
			return err
		}
		traces = append(traces, col.Finish())
	}
	p50 := func(name string) float64 { return median(sp.durations(name)) }
	stages := p50("serve.hash") + p50("graph.make") + p50("engine.run") + p50("exp.envelope") + p50("ledger.append")
	o.layers["serve.http_overhead_p50_ms"] = median(out.latency) - stages
	o.layers["serve.hash_us"] = 1000 * p50("serve.hash")
	o.layers["graph.make_ms"] = p50("graph.make")
	o.layers["exp.envelope_us"] = 1000 * p50("exp.envelope")
	appends := sp.durations("ledger.append")
	o.layers["ledger.append_p50_ms"] = median(appends)
	o.layers["ledger.append_p99_ms"], _ = percentile(appends, 99)
	o.setInfo("replay.engine_run_p50_ms", p50("engine.run"))
	engineLayers(traces, o.layers)
	return nil
}
