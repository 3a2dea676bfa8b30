package serve

import (
	"fmt"
	"time"

	"repro/internal/clique"
	"repro/internal/exp"
	"repro/internal/workload"
)

// maxAdhocN bounds ad-hoc instance sizes: an n-node run needs O(n^2)
// mailbox words per budgeted pair, so an unbounded n would let a single
// request exhaust the process. 1024 is ~4x the largest size any
// registered experiment simulates.
const maxAdhocN = 1024

// adhocParams validates an ad-hoc request against the catalogue and
// resolves its effective word budget: words_per_pair 0 means the
// entry's default. The handler calls it before hashing the request.
func adhocParams(req exp.Request) (workload.Algorithm, int, error) {
	alg, ok := workload.Get(req.Algorithm)
	if !ok {
		return workload.Algorithm{}, 0, fmt.Errorf("unknown algorithm %q (valid: %v)", req.Algorithm, workload.Names())
	}
	if req.N > maxAdhocN {
		return workload.Algorithm{}, 0, fmt.Errorf("n = %d exceeds the ad-hoc limit %d", req.N, maxAdhocN)
	}
	wpp := req.WordsPerPair
	if wpp == 0 {
		wpp = alg.WPP
	}
	return alg, wpp, nil
}

// adhocExperiment wraps an ad-hoc request as an ephemeral Experiment so
// it runs through the same counted exp.Ctx as registry experiments and
// produces the same envelope shape. With res nil the body runs the
// request as a batch of one (exp.Ctx.RunWorkloads). With a precomputed
// result — a run that already executed inside a coalesced
// workload.RunBatch — it folds that result's cost into the Ctx
// (exp.Ctx.Record), wall being the run's share of the batch's wall
// clock. The table and metrics come from the one body either way, so
// the two envelopes cannot drift apart.
func adhocExperiment(req exp.Request, res *clique.Result, wall time.Duration) (exp.Experiment, error) {
	alg, wpp, err := adhocParams(req)
	if err != nil {
		return exp.Experiment{}, err
	}
	return exp.Experiment{
		ID:       "adhoc:" + alg.Name,
		Artefact: "ad-hoc",
		Title:    fmt.Sprintf("%s (n=%d, seed=%d)", alg.Title, req.N, req.Seed),
		Run: func(c *exp.Ctx) {
			t := c.Table("", "n", "wpp", "rounds", "words", "bits", "max pair words")
			res := res
			if res == nil {
				res = c.RunWorkloads(req.N, wpp, workload.Spec{Alg: alg, Seed: req.Seed})[0].Result
			} else {
				c.Record(res, wall)
			}
			t.Row(exp.Int(req.N), exp.Int(wpp), exp.Int(res.Stats.Rounds),
				exp.Int64(res.Stats.WordsSent), exp.Int64(res.Stats.BitsSent),
				exp.Int(res.Stats.MaxPairWords))
			c.Metric("rounds", float64(res.Stats.Rounds), "rounds")
			c.Metric("words", float64(res.Stats.WordsSent), "words")
		},
	}, nil
}
