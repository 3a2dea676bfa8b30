package serve

import (
	"fmt"
	"time"

	"repro/internal/clique"
	"repro/internal/exp"
	"repro/internal/workload"
)

// Algorithm is the ad-hoc catalogue entry served by POST /v1/run. The
// catalogue itself lives in internal/workload so the cliquegrid runner
// sweeps exactly the programs the daemon serves; serve only adds the
// HTTP plumbing and the ad-hoc size cap.
type Algorithm = workload.Algorithm

// Algorithms returns the ad-hoc catalogue sorted by name.
func Algorithms() []Algorithm { return workload.All() }

// AlgorithmNames returns the sorted ad-hoc algorithm names.
func AlgorithmNames() []string { return workload.Names() }

// maxAdhocN bounds ad-hoc instance sizes: an n-node run needs O(n^2)
// mailbox words per budgeted pair, so an unbounded n would let a single
// request exhaust the process. 1024 is ~4x the largest size any
// registered experiment simulates.
const maxAdhocN = 1024

// adhocParams validates an ad-hoc request against the catalogue and
// resolves its effective word budget. The handler resolves the
// catalogue default before hashing; the fallback here only covers
// direct (non-HTTP) callers.
func adhocParams(req exp.Request) (Algorithm, int, error) {
	alg, ok := workload.Get(req.Algorithm)
	if !ok {
		return Algorithm{}, 0, fmt.Errorf("unknown algorithm %q (valid: %v)", req.Algorithm, AlgorithmNames())
	}
	if req.N > maxAdhocN {
		return Algorithm{}, 0, fmt.Errorf("n = %d exceeds the ad-hoc limit %d", req.N, maxAdhocN)
	}
	wpp := req.WordsPerPair
	if wpp == 0 {
		wpp = alg.WPP
	}
	return alg, wpp, nil
}

// adhocExperiment wraps an ad-hoc request as an ephemeral Experiment so
// it runs through the same counted exp.Ctx as registry experiments and
// produces the same envelope shape. With res nil the body simulates the
// request through c.Run. With a precomputed result — a run that already
// executed inside a batched engine execution — it folds that result's
// cost into the Ctx (exp.Ctx.Record), wall being the run's attributed
// share of the batch's wall clock. The table and metrics come from the
// one body either way, so the two envelopes cannot drift apart.
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
				var err error
				if res, err = c.Run(clique.Config{N: req.N, WordsPerPair: wpp}, alg.Make(req.N, req.Seed)); err != nil {
					c.Failf("%v", err)
				}
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
