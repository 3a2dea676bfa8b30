// Package engine provides pluggable execution backends for the congested
// clique simulator. A backend schedules the n node programs of one run,
// synchronises them at round barriers, performs the all-to-all message
// exchange, and enforces the model's rules: per-pair word budgets, the
// broadcast-only restriction, the round limit, and (optionally) per-node
// communication transcripts.
//
// Package clique owns the node-side API (clique.Node, clique.Run); this
// package owns execution. NodeRuntime, the contract between the two, is
// only what a backend must do itself: Send, Broadcast and SendBuf queue
// words, Recv, Senders and BroadcastTable read the last round, and
// Barrier ends a round.
// Node-handle conveniences built from those — BroadcastBuf's staging
// buffer and its flush, RecvInto's append — live once in clique.Node,
// not in each backend. Two backends are provided; lockstep is the
// default (DefaultBackend):
//
//   - "goroutine": one goroutine per node with a condition-variable
//     barrier per round. This is the original engine; it is simple and
//     the reference for semantics. Its per-link cells are reused from
//     round to round, which is safe because Recv views expire at the
//     next barrier and transcripts copy what they record.
//   - "lockstep": a deterministic engine that resumes node programs as
//     pull-style coroutines on a sharded worker pool, with preallocated
//     mailbox buffers that are reused across rounds. No per-round
//     allocation on the exchange path and no contended barrier, which
//     makes large instances (n >= 256) practical.
//
// The lockstep mailbox also records who sent to whom: an activity mask
// of one bit per ordered pair, which each sender sets in its own
// sender-major row as it queues a non-empty message. At exchange the
// scheduler transposes it, 64x64 bits per tile, into a receiver-major
// mask and resets only the mailbox rows or cells of the senders that
// spoke, so a round costs the exchange O(active pairs + n²/64) instead
// of O(n²). NodeRuntime.Senders reads the receiver-major mask: a node
// lists the peers that spoke to it in O(senders + n/64), which is what
// lets the sparse collectives in package comm pay for silence nothing,
// as the model does. The goroutine backend answers Senders with a scan
// of its inbox row.
//
// A lockstep broadcast is written once. When its sender has queued
// nothing else in the round, the words go to the sender's cell of a
// sender-major broadcast plane rather than into n−1 pair cells, and
// every receiver reads that one cell: the simulator stops storing and
// re-reading n−1 copies, while the model still charges (n−1)·k words.
// A later send or broadcast from the same sender in the same round
// first spills the plane into its cells, so mixed rounds keep the cell
// path's word order, budget checks, violations, Stats and transcripts.
// Receivers of one broadcast may therefore be handed the same slice;
// NodeRuntime.Recv's results were always read-only.
//
// A round in which every one of the n senders broadcast exactly k > 0
// words on the plane — the model's all-gather round — is also laid end
// to end, at exchange and on the scheduler goroutine, into one
// sender-major table of n·k words that the mailbox holds and reuses
// (the arena layouts carve it beside the plane, the sliceBox grows it
// once). NodeRuntime.BroadcastTable(k) hands that one table to every
// node of the run, so a broadcast collective fills its own table with
// one copy instead of n−1 Recv calls. Any other round has no table —
// the scan of the cells' lengths stops at the first sender that differs
// — and the goroutine backend never has one; callers then read each
// peer with Recv.
//
// Both backends are required to be result- and round-count-identical for
// every node program; the cross-backend tests in the repository root
// enforce this.
//
// The lockstep backend has one scheduler, RunBatch: a single scheduler
// drives B independent runs of the same shape — seed sweeps — round by
// round, its workers sharding node ids (each owns the same id range of
// every run), amortising per-round dispatch while keeping every run's
// result bit-identical to running it alone. A serial Run is a batch of
// one, and the only kind that carries a tracer; batches of two or more
// share a run-major mailbox arena, a batch of one draws a pooled
// per-run mailbox. Backends without native batching, and traced
// batches, run one Run per entry.
package engine
