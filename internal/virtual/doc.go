// Package virtual simulates an m-node congested clique on top of a
// (typically smaller) real clique: each real node hosts a set of virtual
// nodes and relays their traffic. This is the substrate behind the
// paper's Theorem 10 simulation argument, where each of the n input
// nodes simulates the O(k^2) gadget copies it owns in the constructed
// graph G', and the real round cost per virtual round is bounded by the
// largest number of virtual pairs sharing a real link.
//
// A virtual node behaves like a real one at its last round too: words it
// queued (or staged with BroadcastBuf, which is flushed when its program
// returns) before returning without Tick are delivered in the virtual
// round the remaining virtual nodes complete. Only a round that no
// virtual node completes with Tick goes unexchanged, as on the engines.
package virtual
