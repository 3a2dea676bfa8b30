// Package clique implements a synchronous congested clique simulator.
//
// The model follows Korhonen and Suomela, "Towards a complexity theory for
// the congested clique" (SPAA 2018), Section 3: n nodes, fully connected,
// computation proceeds in synchronous rounds, and in each round every
// ordered pair of nodes may exchange an O(log n)-bit message. The simulator
// measures messages in words; a word is any uint64 whose value the calling
// algorithm can justify as poly(n)-bounded (a node id, an id pair, an edge
// weight, a counter). Config.WordsPerPair bounds how many words a single
// ordered pair may carry per round; exceeding the budget aborts the run
// with an error, because it means the algorithm does not fit the model.
//
// Algorithms are written in a blocking style: each node executes a
// NodeFunc, queues messages with Send or Broadcast, and calls Tick to
// advance to the next synchronous round. Local computation between Ticks
// is unlimited, matching the model.
//
// Node is the one implementation of the allocation-free conveniences
// over the engine's runtime. BroadcastBuf hands out the node's reused
// staging buffer; the staged words are queued by one runtime Broadcast
// at the node's next send or Tick (after that method's own argument
// checks) or, through RunBatch's body wrapper, when the program
// returns — so a returning node's staged broadcast reaches the round its
// peers complete, and a budget violation it raises is recovered by the
// engine like any other. RecvInto appends the runtime's Recv view to a
// caller-owned buffer. Both backends therefore see only plain Broadcast
// and Recv calls.
//
// Replicated is the one primitive for local computation every node
// repeats on data all nodes hold (a merge over broadcast announcements,
// say): on lockstep a run computes each such step once and hands the
// read-only result to every node whose inputs equal the computed-from
// inputs word for word; the goroutine reference backend and any other
// Endpoint compute it at every node.
//
// How the n node programs are actually scheduled is the job of an
// execution backend (package engine), selected with Config.Backend:
// "lockstep", the default, resumes the programs as coroutines on a
// sharded worker pool with reused mailbox buffers, and "goroutine" runs
// one goroutine per node with a barrier per round. The two are
// result-identical; lockstep is deterministic and much faster at large
// n, and goroutine is the independent reference it is tested against. RunBatch is the one entry
// point: seed sweeps of one shape run as a single lockstep execution
// with bit-identical per-run results, and Run is a batch of one.
package clique
