package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/clique"
)

// Request kinds. A Request either replays a registered experiment or
// describes an ad-hoc simulator run of a named algorithm.
const (
	KindExperiment = "experiment"
	KindAdhoc      = "adhoc"
)

// Request is the canonical description of one unit of serving work —
// the object the cliqued daemon hashes for its deduplicating result
// cache. Two requests that canonicalise to the same Request are
// guaranteed to produce bit-identical result envelopes (everything in a
// Result is deterministic in these fields), which is what makes caching
// and request coalescing sound. The one exception is Trace: a traced
// envelope embeds wall-clock span data, so for traced requests the
// cache serves a representative trace rather than a reproducible one —
// the model-level content is still identical run to run.
type Request struct {
	// Kind is KindExperiment or KindAdhoc.
	Kind string `json:"kind"`
	// Experiment is the registry id (Kind == KindExperiment).
	Experiment string `json:"experiment,omitempty"`
	// Algorithm names the ad-hoc node program (Kind == KindAdhoc). The
	// name set is owned by the server; canonicalisation only requires
	// it to be non-empty.
	Algorithm string `json:"algorithm,omitempty"`
	// N is the clique size for ad-hoc runs.
	N int `json:"n,omitempty"`
	// WordsPerPair is the ad-hoc per-pair word budget; 0 means the
	// algorithm's own default.
	WordsPerPair int `json:"words_per_pair,omitempty"`
	// Seed parameterises ad-hoc instance generation.
	Seed uint64 `json:"seed,omitempty"`
	// Backend is the execution engine; canonicalisation resolves the
	// empty string to the model default so "" and the explicit default
	// hash identically. Model costs are backend-invariant, but the
	// envelope records the backend, so it stays part of the key.
	Backend string `json:"backend"`
	// Quick selects reduced experiment sizes.
	Quick bool `json:"quick,omitempty"`
	// Trace attaches the cliquetrace/v1 block to the result envelope.
	// A traced envelope is a different artefact from an untraced one
	// (it carries wall-clock span data), so Trace is part of the cache
	// key: traced and untraced requests never coalesce.
	Trace bool `json:"trace,omitempty"`
}

// Canonical validates the request and normalises every field that has a
// default, so that all spellings of the same work coincide on one
// representative — the precondition for Hash being a cache key.
func (r Request) Canonical() (Request, error) {
	switch r.Kind {
	case KindExperiment:
		if _, ok := Get(r.Experiment); !ok {
			return Request{}, fmt.Errorf("exp: unknown experiment %q (valid: %v)", r.Experiment, IDs())
		}
		if r.Algorithm != "" || r.N != 0 || r.WordsPerPair != 0 || r.Seed != 0 {
			return Request{}, fmt.Errorf("exp: experiment request %q carries ad-hoc fields", r.Experiment)
		}
	case KindAdhoc:
		if r.Algorithm == "" {
			return Request{}, fmt.Errorf("exp: ad-hoc request missing algorithm")
		}
		if r.Experiment != "" {
			return Request{}, fmt.Errorf("exp: ad-hoc request carries experiment id %q", r.Experiment)
		}
		if r.N < 1 {
			return Request{}, fmt.Errorf("exp: ad-hoc request n = %d, need n >= 1", r.N)
		}
		if r.N > clique.MaxN {
			return Request{}, fmt.Errorf("exp: ad-hoc request n = %d exceeds the maximum %d", r.N, clique.MaxN)
		}
		if r.WordsPerPair < 0 {
			return Request{}, fmt.Errorf("exp: ad-hoc request words_per_pair = %d, need >= 0", r.WordsPerPair)
		}
		if r.WordsPerPair > clique.MaxWordsPerPair {
			return Request{}, fmt.Errorf("exp: ad-hoc request words_per_pair = %d exceeds the maximum %d", r.WordsPerPair, clique.MaxWordsPerPair)
		}
	default:
		return Request{}, fmt.Errorf("exp: unknown request kind %q (valid: %s, %s)", r.Kind, KindExperiment, KindAdhoc)
	}
	if r.Backend == "" {
		r.Backend = clique.DefaultBackend
	}
	ok := false
	for _, b := range clique.Backends() {
		if b == r.Backend {
			ok = true
			break
		}
	}
	if !ok {
		return Request{}, fmt.Errorf("exp: unknown backend %q (valid: %v)", r.Backend, clique.Backends())
	}
	return r, nil
}

// modelRevision names the catalogue's model costs. Bump it when a
// catalogue entry's model cost changes on purpose (a round count, a
// word count), so that persisted ledgers stop serving results the
// current code would no longer produce. It feeds only the hash; the
// envelope layout does not change with it.
//
// Revisions: 1 = APSP and transitive closure stop at their fixed point;
// 2 = int64 Mul3D on a fixed two-hop schedule.
const modelRevision = 2

// Hash returns the canonical request hash: SHA-256 over the schema
// version, the model revision and the canonicalised request's JSON.
// Call it on the output of Canonical; hashing a non-canonical request
// would split the cache. The schema version and model revision are
// mixed in so that envelope-layout changes and deliberate model-cost
// changes invalidate any persisted cache rather than serving stale
// results.
func (r Request) Hash() string { return r.hashAt(modelRevision) }

func (r Request) hashAt(revision int) string {
	data, err := json.Marshal(r)
	if err != nil {
		// A Request is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("exp: marshalling request: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(SchemaVersion))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(revision)))
	h.Write([]byte{0})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}
