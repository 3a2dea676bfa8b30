package clique

import (
	"slices"
	"sync"
)

// Replicated returns f(prev, in), where f is a deterministic function
// of data every node of the run holds — the local computation that all
// n nodes of a congested clique algorithm repeat on the same broadcast
// words. The model charges nothing for it; Replicated lets the
// simulator pay for it once per run instead of once per node.
//
// On the lockstep backend a run's nodes share one table of results,
// keyed by (round, site, the k-th call of site in that round). A slot
// keeps the results of the first few distinct inputs it sees: a caller
// reuses a result only when its prev is the same pointer and its in
// equals the stored copy word for word, and otherwise computes its own,
// so a node whose inputs diverge never sees another node's result
// while the nodes that agree still share. The goroutine reference
// backend never shares — every node calls f itself, which is what lets
// the cross-backend tests catch a shared result that differs from
// per-node compute — and neither does any other Endpoint (a virtual
// clique's node, for instance).
//
// Contract: f may read only prev, in and constants of the run such as
// n; it must not call the node, and it must not modify prev or in. The
// result may be handed to every node of the run, so callers treat it
// as read-only and copy whatever they keep or change.
func Replicated[S any](nd Endpoint, site string, prev *S, in []uint64, f func(prev *S, in []uint64) *S) *S {
	node, ok := nd.(*Node)
	if !ok || node.rep == nil {
		return f(prev, in)
	}
	s := node.rep.slot(node.completed, site, node.nextCall(site))
	if out, ok := share(s, prev, in, f); ok {
		return out
	}
	return f(prev, in)
}

// share returns the slot's result for (prev, in), computing it if the
// slot holds none; ok is false when it holds no such result and is
// full. f runs under the slot's lock, so each distinct input is
// computed once; this cannot deadlock because f never calls the node
// and so never waits on a barrier its peers are held from. The deferred
// unlock lets a panicking f fail its node like any node panic, and the
// slot is left as it was.
func share[S any](s *replicaSlot, prev *S, in []uint64, f func(prev *S, in []uint64) *S) (out *S, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if p, ok := e.prev.(*S); ok && p == prev && slices.Equal(e.in, in) {
			return e.out.(*S), true
		}
	}
	if len(s.entries) == maxReplicaEntries {
		return nil, false
	}
	out = f(prev, in)
	s.entries = append(s.entries, replicaEntry{prev: prev, in: slices.Clone(in), out: out})
	return out, true
}

// maxReplicaEntries bounds the distinct inputs one slot keeps, so a
// caller whose inputs are its own (a misuse) costs its peers a bounded
// scan rather than one comparison per earlier node.
const maxReplicaEntries = 4

// replicas is one lockstep run's table of Replicated results. It holds
// only the current round's slots: a run's nodes are never in different
// rounds between barriers, so the first call of a new round drops the
// old ones. The zero value is an empty table; its map is made at the
// first call, so a run that never calls Replicated allocates nothing.
type replicas struct {
	mu    sync.Mutex
	round int
	slots map[replicaKey]*replicaSlot
}

type replicaKey struct {
	site string
	call int
}

type replicaSlot struct {
	mu      sync.Mutex
	entries []replicaEntry
}

// replicaEntry is one computed result and a copy of its inputs.
type replicaEntry struct {
	prev, out any
	in        []uint64
}

// slot returns the slot of the call-th call of site in round.
func (t *replicas) slot(round int, site string, call int) *replicaSlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.slots == nil {
		t.slots = make(map[replicaKey]*replicaSlot)
	}
	if round != t.round {
		clear(t.slots)
		t.round = round
	}
	k := replicaKey{site, call}
	s := t.slots[k]
	if s == nil {
		s = new(replicaSlot)
		t.slots[k] = s
	}
	return s
}

// siteCalls counts one node's Replicated calls of a site in a round.
type siteCalls struct {
	site         string
	round, calls int
}

// nextCall returns how many times this node already called site in the
// current round, and counts this call.
func (nd *Node) nextCall(site string) int {
	for i := range nd.repCalls {
		c := &nd.repCalls[i]
		if c.site == site {
			if c.round != nd.completed {
				c.round, c.calls = nd.completed, 0
			}
			c.calls++
			return c.calls - 1
		}
	}
	nd.repCalls = append(nd.repCalls, siteCalls{site: site, round: nd.completed, calls: 1})
	return 0
}
