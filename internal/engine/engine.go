package engine

import (
	"fmt"
	"math/bits"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/trace"
)

// Config describes one simulated network execution. It mirrors the model
// fields of clique.Config; backend selection itself lives one layer up.
type Config struct {
	// N is the number of nodes. Must be at least 1.
	N int
	// WordsPerPair is the per-round, per-ordered-pair message budget in
	// words. Zero means 1, the strict model.
	WordsPerPair int
	// MaxRounds aborts the run after this many rounds. Zero means
	// DefaultMaxRounds.
	MaxRounds int
	// RecordTranscript enables per-node communication transcripts.
	RecordTranscript bool
	// BroadcastOnly switches to the broadcast congested clique: each
	// round every node must send the same words to every other node.
	BroadcastOnly bool
	// Tracer, if non-nil, receives an EndRound report for every
	// exchanged round (wall time, barrier wait, per-pair words). Nil
	// disables tracing; backends guard every trace call site with a nil
	// check, so the off path does no trace work at all.
	Tracer trace.Tracer
}

// forceTrace reports whether CLIQUE_FORCE_TRACE is set: CI runs the
// engine/comm/clique tests with it under -race so the traced code paths
// are exercised even where the test itself passes no Tracer.
var forceTrace = sync.OnceValue(func() bool {
	return os.Getenv("CLIQUE_FORCE_TRACE") != ""
})

// TraceForced reports whether CLIQUE_FORCE_TRACE is set, so layers
// above (clique's span recording) can force their traced paths too.
func TraceForced() bool { return forceTrace() }

// effectiveTracer resolves a run's tracer: the configured one, or —
// under CLIQUE_FORCE_TRACE — a throwaway collector whose output nobody
// reads (it exists purely to drive the traced paths in tests).
func effectiveTracer(cfg Config) trace.Tracer {
	if cfg.Tracer != nil {
		return cfg.Tracer
	}
	if forceTrace() {
		return trace.NewCollector("forced", cfg.N, cfg.WordsPerPair)
	}
	return nil
}

// DefaultMaxRounds aborts runaway algorithms; any real congested clique
// algorithm in this repository terminates within O(n) rounds for the
// instance sizes we simulate.
const DefaultMaxRounds = 1 << 20

// MaxN and MaxWordsPerPair bound a single run's shape. They are far
// beyond anything simulatable (a 65536-node clique has 2^32 ordered
// pairs) but small enough that mailbox size arithmetic (n*n*wpp, in
// int64) cannot overflow — important now that config values can arrive
// from the network via the cliqued daemon.
const (
	MaxN            = 1 << 16
	MaxWordsPerPair = 1 << 24
)

func (c Config) withDefaults() Config {
	if c.WordsPerPair == 0 {
		c.WordsPerPair = 1
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = DefaultMaxRounds
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("clique: config N = %d, need N >= 1", c.N)
	}
	if c.N > MaxN {
		return fmt.Errorf("clique: config N = %d exceeds the maximum %d", c.N, MaxN)
	}
	if c.WordsPerPair < 0 {
		return fmt.Errorf("clique: config WordsPerPair = %d, need >= 0", c.WordsPerPair)
	}
	if c.WordsPerPair > MaxWordsPerPair {
		return fmt.Errorf("clique: config WordsPerPair = %d exceeds the maximum %d", c.WordsPerPair, MaxWordsPerPair)
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("clique: config MaxRounds = %d, need >= 0", c.MaxRounds)
	}
	return nil
}

// WordBits returns the number of bits the model charges for one word on an
// n-node clique: ceil(log2 n), with a minimum of 1.
func WordBits(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// Stats aggregates the cost of a run in model terms.
type Stats struct {
	// Rounds is the number of synchronous rounds executed, i.e. the
	// model's time complexity of this execution.
	Rounds int

	// WordsSent is the total number of words carried by all links over
	// the whole run.
	WordsSent int64

	// MaxPairWords is the largest number of words any single ordered
	// pair carried in any single round. It never exceeds WordsPerPair.
	MaxPairWords int

	// BitsSent is WordsSent times WordBits(n): the total communication
	// volume in model bits.
	BitsSent int64
}

// Transcript is the full communication record of a single node: for each
// round, the words it sent to and received from every peer. This is the
// certificate object of Theorem 3 (normal form for nondeterministic
// algorithms).
type Transcript struct {
	// NodeID is the node this transcript belongs to.
	NodeID int
	// Rounds[r].Sent[p] are the words sent to peer p in round r;
	// Rounds[r].Recv[p] are the words received from peer p.
	Rounds []TranscriptRound
}

// TranscriptRound records one round of one node's communication.
type TranscriptRound struct {
	Sent [][]uint64
	Recv [][]uint64
}

// Words returns the total number of words (sent plus received) recorded in
// the transcript. Theorem 3 bounds this by O(T(n) * n); multiplying by
// WordBits(n) gives the O(T(n) n log n) label size of the normal form.
func (t *Transcript) Words() int {
	total := 0
	for _, r := range t.Rounds {
		for _, s := range r.Sent {
			total += len(s)
		}
		for _, rc := range r.Recv {
			total += len(rc)
		}
	}
	return total
}

// Result carries everything a completed run produced besides the
// algorithm's own outputs (which the caller collects via its node
// function's closure).
type Result struct {
	Stats Stats
	// Transcripts is non-nil only if Config.RecordTranscript was set;
	// it is indexed by node id.
	Transcripts []*Transcript
}

// Abort is the sentinel panic value used to unwind node code when the run
// is cancelled (violation in some node, or MaxRounds hit). Backends raise
// and recover it; node code must let it pass through.
type Abort struct{}

// Violation is the panic value node-side code raises on a model violation
// (bandwidth exceeded, invalid peer, Node.Fail); the backend converts it
// into the run's error.
type Violation struct{ Err error }

// NodeRuntime is the surface a backend exposes to node handles. All
// methods are called from the node program itself (whatever goroutine or
// coroutine the backend runs it on); a node only ever touches its own
// mailbox rows, so backends need no locking on these paths.
type NodeRuntime interface {
	// Send queues words from node `from` to node `to` in the current
	// round. `round` is the sender's completed-round count, used only
	// for error messages. It panics with Violation if the (from, to)
	// budget would be exceeded; target validation happens in the caller.
	Send(from, round, to int, words []uint64)
	// Broadcast queues the same words from `from` to every other node,
	// in increasing target order. Semantically identical to n-1 Sends,
	// but backends keep it on a fast path: broadcast is the densest and
	// most common traffic pattern in the algorithm suite.
	Broadcast(from, round int, words []uint64)
	// SendBuf reserves k words on the (from, to) link and returns the
	// mailbox storage itself for the caller to fill in place — the
	// zero-copy send path. The budget is charged at reservation, with
	// the same Violation as an equivalent Send; the returned slice is
	// writable until the node's next Barrier. Contents left unwritten
	// are unspecified, so callers must fill all k words.
	SendBuf(from, round, to, k int) []uint64
	// Recv returns the words `to` received from `from` in the most
	// recently completed round, or nil if none. The slice is owned by
	// the backend and valid only until the node's next barrier.
	Recv(to, from int) []uint64
	// Senders appends to buf, in ascending order, the ids p for which
	// Recv(to, p) is non-empty in the most recently completed round,
	// and returns the result. The lockstep backend reads its
	// receiver-major activity mask, so the cost is O(senders + n/64)
	// rather than a probe of all n senders.
	Senders(to int, buf []int) []int
	// BroadcastTable returns, when every one of the n nodes broadcast
	// exactly k > 0 words and queued nothing else in the most recently
	// completed round, one sender-major table of those n·k words:
	// sender p's words, its own included, are [p·k, (p+1)·k). It is nil
	// for any other round and on backends that keep no such table. The
	// table is the backend's, shared by every node and valid only until
	// the node's next barrier, so callers copy it and never write it.
	// It lets a broadcast collective fill its table with one copy
	// instead of n−1 Recv calls; the lockstep backend builds it once per
	// round from its broadcast plane.
	BroadcastTable(k int) []uint64
	// Barrier blocks (or suspends) node `id` until every active node
	// has arrived and the round's messages have been exchanged. It
	// panics with Abort if the run was cancelled.
	Barrier(id int)
}

// Backend schedules the node programs of one run. body is invoked once
// per node id with the runtime the node's handle should delegate to;
// it must be safe to invoke the n bodies concurrently.
type Backend interface {
	Name() string
	Run(cfg Config, body func(id int, rt NodeRuntime)) (*Result, error)
}

// DefaultBackend is the backend used when no name is given: lockstep,
// the deterministic engine every command and the daemon run. goroutine
// stays the independent reference it is checked against.
const DefaultBackend = "lockstep"

// backends is the single backend registry: New, Names, and the
// unknown-backend error string are all derived from this map, so adding
// a backend is one entry here and cannot desynchronise validation, flag
// help, and error text.
var backendRegistry = map[string]Backend{
	"goroutine": goroutineBackend{},
	"lockstep":  lockstepBackend{},
}

// New returns the backend with the given name; the empty string selects
// DefaultBackend.
func New(name string) (Backend, error) {
	if name == "" {
		name = DefaultBackend
	}
	if be, ok := backendRegistry[name]; ok {
		return be, nil
	}
	return nil, fmt.Errorf("engine: unknown backend %q (have: %s)", name, strings.Join(Names(), ", "))
}

// Names lists the available backend names, sorted.
func Names() []string {
	names := make([]string, 0, len(backendRegistry))
	for name := range backendRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// budgetViolation builds the canonical bandwidth error. Both backends use
// it so their error strings match exactly.
func budgetViolation(from, round, total, to, budget int) Violation {
	return Violation{Err: fmt.Errorf(
		"clique: node %d round %d: bandwidth exceeded sending %d words to %d (budget %d words/pair/round)",
		from, round, total, to, budget)}
}

// findBroadcastViolation returns the first (from, to) pair whose queued
// words differ from node from's words to its lowest-id peer, or (-1, -1)
// if every node's outbox row is uniform (the broadcast clique's law).
// out(from, to) reads the queued words, whatever the backend's layout.
func findBroadcastViolation(n int, out func(from, to int) []uint64) (int, int) {
	for from := 0; from < n; from++ {
		var ref []uint64
		first := true
		for to := 0; to < n; to++ {
			if to == from {
				continue
			}
			row := out(from, to)
			if first {
				ref = row
				first = false
				continue
			}
			if len(row) != len(ref) {
				return from, to
			}
			for i := range ref {
				if row[i] != ref[i] {
					return from, to
				}
			}
		}
	}
	return -1, -1
}

// recordRound appends one round of transcripts. in(to, from) reads the
// just-exchanged inbox. Empty slices are recorded as nil so transcripts
// compare identically across backends; nil rows stay nil without an
// append(nil, ...) pass, and each delivered (from, to) stream is copied
// exactly once — the sender's Sent entry and the receiver's Recv entry
// share the copy, which is safe because transcripts are immutable
// snapshots.
func recordRound(ts []*Transcript, n int, in func(to, from int) []uint64) {
	for v := 0; v < n; v++ {
		ts[v].Rounds = append(ts[v].Rounds, TranscriptRound{
			Sent: make([][]uint64, n),
			Recv: make([][]uint64, n),
		})
	}
	for to := 0; to < n; to++ {
		round := &ts[to].Rounds[len(ts[to].Rounds)-1]
		for from := 0; from < n; from++ {
			words := in(to, from)
			if len(words) == 0 {
				continue
			}
			cp := append([]uint64(nil), words...)
			round.Recv[from] = cp
			sender := &ts[from].Rounds[len(ts[from].Rounds)-1]
			sender.Sent[to] = cp
		}
	}
}

// finish seals a run's result: BitsSent is derived, not tracked live.
func finish(stats Stats, ts []*Transcript, n int) *Result {
	stats.BitsSent = stats.WordsSent * int64(WordBits(n))
	return &Result{Stats: stats, Transcripts: ts}
}
