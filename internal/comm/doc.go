// Package comm is the collective-communication layer of the congested
// clique simulator: the reusable vocabulary of communication patterns —
// broadcasts, reductions, personalised all-to-all exchanges, sparse
// sends, and Lenzen-style balanced routing — that every algorithm
// package builds on instead of hand-rolling per-word Send loops.
//
// All collectives are global operations written against
// clique.Endpoint: every node of the clique must call the same
// collective with compatible arguments at the same point of its
// program, exactly as in the paper's constructions (the Theorem 2–3
// simulations and the fine-grained upper bounds of Figure 1 are all
// phrased over this vocabulary, as are the algebraic and MST algorithms
// of the related work). Each collective is budget-aware: operations
// that move more than WordsPerPair() words per link split themselves
// into ceil(k / wordsPerPair) rounds automatically, so algorithms state
// *what* moves and the collective owns the round schedule.
//
// The collectives ride the allocation-free Endpoint paths
// (BroadcastWords, SendWords, SendBuf, BroadcastBuf, RecvInto), so a
// migrated algorithm allocates nothing per round beyond its own result
// buffers. The broadcast collectives (BroadcastWordInto,
// BroadcastWordOK, BroadcastAllInto and so BroadcastBits, and
// BroadcastBitRowsInto) receive a round in which every node broadcast
// its chunk and nothing else from the lockstep engine's shared table
// (clique.Node.BroadcastTable), one copy into the caller's table in
// place of n−1 Recv calls; every other round, the goroutine backend
// and a virtual clique's nodes take the per-peer Recv loop, which
// raises the same failure at the same node. Results are always the
// caller's own copies. Every collective here has a caller among the algorithms,
// commands or benchmarks; one with none is deleted rather than kept for
// later. Which collective to reach for:
//
//   - BroadcastAll: every node contributes k words, all nodes learn the
//     full table (the all-gather of the suite), one flat sender-major
//     slice of n·k words: sender p's words are t[p*k : (p+1)*k].
//   - BroadcastWord / BroadcastWordOK: the one-word special case, with
//     OK-flags when peers may legally stay silent.
//   - MaxWord / SumWord / OrBool / AndBool: one-round reductions,
//     identical at every node.
//   - Flags: presence-coded one-round announcements (nothing on the
//     wire for false).
//   - BroadcastRounds: a fixed number of optional one-word broadcast
//     rounds (kernelisation-style protocols).
//   - BroadcastFrom: one root ships k words to everyone (leader
//     agreement, witness publication).
//   - AllToAllWord: one word to every peer, one round (transposes,
//     label-consistency checks).
//   - AllToAll: arbitrary per-destination streams, the raw substrate
//     under Route. Its first round is the length round: one word per
//     ordered pair, the length of the stream owed plus the sender's
//     longest, so every node learns the round count and the exact size
//     of each stream it will receive. Streams are carved, exactly sized,
//     from one backing array and received through Endpoint.Senders; a
//     stream that does not match its announced length fails the run.
//   - TwoHop: a fixed personalised exchange that every node knows from
//     a Plan, the runs of equal streams into each destination. Each
//     word moves alone at a position both ends derive — no headers, no
//     length round — through intermediate (P_t(s) + Q_s(t) + y) mod n
//     for word y of stream (s, t), P and Q the words t receives from
//     senders below s and s sends to destinations below t. The plan's
//     heaviest link in each hop fixes the rounds; a link that carries
//     any other number of words fails the run. Nothing is kept between
//     calls: each derives its node's share of the plan afresh, without
//     a per-word index. int64 matmul.Mul3D's three phases run on it.
//   - Route / RouteDirect: Lenzen's balanced routing [43] and its
//     unbalanced ablation baseline. Both take one flat slice of
//     [dst, payload...] records and return one exactly sized,
//     caller-owned slice of [src, payload...] records, so a routed
//     instance costs the words it moves, not a heap object per message.
//     They share AllToAll's core, which fills each chunk straight into
//     the mailbox (Endpoint.SendBuf) from the records themselves, so a
//     routed word is copied once per hop: sender's records → mailbox →
//     the receiver's result array. Their callers are subgraph's edge
//     gathering, routing's sort and the sub and ablation tables.
//   - BroadcastBits: bit-packed broadcast at the honest O(log n)-bit
//     word size, returned as BroadcastAll's flat table of the words on
//     the wire (gather keys its replicated solvers on them).
//
// The sparse collectives (sparse.go) charge only the words actually
// sent, for the message-frugal protocols whose silence must be free:
//
//   - SendToFew: at most one message per destination, received as a
//     sender-ascending list appended to a caller-reused buffer.
//   - SampledBroadcast: only the active nodes broadcast k words.
//
// They, Flags and BroadcastRounds receive through Endpoint.Senders, so
// on the lockstep backend a round costs each node O(senders that spoke
// + n/64), not a probe of all n peers. SendToFew allocates nothing in
// proportion to n; SampledBroadcast and Flags still return n-entry
// tables, one O(n) allocation per call.
//
// The packed plane (bits.go) moves dense boolean payloads at 64 matrix
// entries per word over bitvec.Row values — ceil(bits/64) words per row
// instead of one word per entry, the representation Le Gall's algebraic
// congested-clique algorithms exploit:
//
//   - BroadcastBitRows / BroadcastBitRowsInto: every node broadcasts
//     one packed row; all nodes learn the table (packed BroadcastAll).
//   - AllToAllFixed: the fixed-width personalised word exchange — no
//     agreement round, and the transport of the packed 3D matrix
//     multiplication's perfectly balanced block phases.
package comm
