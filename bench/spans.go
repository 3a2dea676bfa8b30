package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// spanLog keeps the traced pass's spans in memory until the run ends:
// one span per call the benchmark makes into a module, with the span
// that caused it and the request it served (a request hash, experiment
// id or grid cell key). It is safe for concurrent use. A nil *spanLog
// records nothing, so the untraced pass runs the same code.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name, req  string
	lane       int // the goroutine's lane: client or worker index
	parent     int // index of the causing span, -1 for a root
	start, end time.Duration
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (l *spanLog) begin(name, req string, parent, lane int) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, req: req, lane: lane, parent: parent, start: now, end: -1})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	l.spans[i].end = now
	l.mu.Unlock()
}

// durations returns the closed spans of one name in ms, in order.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

type interval struct {
	name       string
	start, end time.Duration
	parent     int
}

// selfTimes returns, per name, the summed self time of the intervals.
func selfTimes(ivs []interval) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range selfEach(ivs) {
		out[ivs[i].name] += d
	}
	return out
}

// selfEach returns each interval's duration minus the union of its
// direct children's intervals. An open interval (end < start) has none.
func selfEach(ivs []interval) []time.Duration {
	children := make([][]interval, len(ivs))
	for _, iv := range ivs {
		if iv.parent >= 0 {
			children[iv.parent] = append(children[iv.parent], iv)
		}
	}
	out := make([]time.Duration, len(ivs))
	for i, iv := range ivs {
		if iv.end >= iv.start {
			out[i] = iv.end - iv.start - covered(children[i], iv.start, iv.end)
		}
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv.start, cur), min(iv.end, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// nestByContainment sets each interval's parent to the innermost
// earlier interval containing it. Collector spans come from one node's
// program in program order, so they nest properly.
func nestByContainment(ivs []interval) {
	order := make([]int, len(ivs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := ivs[order[a]], ivs[order[b]]
		if x.start != y.start {
			return x.start < y.start
		}
		return x.end > y.end
	})
	var stack []int
	for _, i := range order {
		for len(stack) > 0 && ivs[stack[len(stack)-1]].end <= ivs[i].start {
			stack = stack[:len(stack)-1]
		}
		ivs[i].parent = -1
		if len(stack) > 0 {
			ivs[i].parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
}

// chromeEvent is one Chrome trace-event record, the format Perfetto
// and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace events, one thread per
// lane, each span carrying its request id, parent and self time.
func (l *spanLog) writeChrome(path, workload string) error {
	l.mu.Lock()
	ivs := make([]interval, len(l.spans))
	for i, s := range l.spans {
		ivs[i] = interval{name: s.name, start: s.start, end: s.end, parent: s.parent}
	}
	self := selfEach(ivs)
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "bench " + workload}}}
	for i, s := range l.spans {
		if s.end < s.start {
			continue
		}
		args := map[string]any{"self_us": usec(self[i])}
		if s.req != "" {
			args["req"] = s.req
		}
		if s.parent >= 0 {
			args["parent"] = l.spans[s.parent].name
		}
		events = append(events, chromeEvent{Name: s.name, Ph: "X", Cat: "bench", Pid: 1, Tid: s.lane,
			TS: usec(s.start), Dur: usec(s.end - s.start), Args: args})
	}
	l.mu.Unlock()
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// engineLayers folds the program's run traces into the engine and comm
// per-layer metrics: node compute (round wall minus the scheduler's
// exchange/barrier time), exchange, wall per node-round, and each
// collective's self time with nested collectives subtracted.
func engineLayers(traces []*trace.RunTrace, layers map[string]float64) {
	var wall, barrier, nodeRounds int64
	opSelf := map[string]time.Duration{}
	for _, t := range traces {
		for _, r := range t.Rounds {
			wall += r.WallNS
			barrier += r.BarrierNS
		}
		nodeRounds += int64(t.N) * int64(len(t.Rounds))
		var ops []interval
		for _, s := range t.Spans {
			if s.Kind == trace.KindOp {
				start := time.Duration(s.StartNS)
				ops = append(ops, interval{name: s.Name, start: start, end: start + time.Duration(s.DurNS)})
			}
		}
		nestByContainment(ops)
		for name, d := range selfTimes(ops) {
			opSelf[name] += d
		}
	}
	if len(traces) == 0 {
		return
	}
	layers["engine.compute_s"] = float64(wall-barrier) / 1e9
	layers["engine.exchange_s"] = float64(barrier) / 1e9
	if nodeRounds > 0 {
		layers["engine.ns_per_node_round"] = float64(wall) / float64(nodeRounds)
	}
	for name, d := range opSelf {
		layers["comm.op_self_ms."+name] = ms(d)
	}
}
