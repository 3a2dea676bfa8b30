package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
)

const specPath = "../BENCHMARK.json"

// quickGolden writes a quick-size registry report for the toy registry
// run to be checked against, corrupted by corrupt when it is non-nil.
func quickGolden(t *testing.T, corrupt func(rep map[string]any)) string {
	t.Helper()
	results, _, err := exp.Run(exp.IDs(), exp.Options{Backend: "lockstep", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	opts := exp.Options{Backend: "lockstep", Quick: true}
	if err := exp.NewReport("lockstep", opts, results, exp.Timing{}, false).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if corrupt != nil {
		var rep map[string]any
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		corrupt(rep)
		if data, err = json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runBench runs the command and returns its exit code, its record and
// the raw result line (the last line of standard output).
func runBench(t *testing.T, work string, args ...string) (int, *record, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append([]string{"-spec", specPath, "-work", work}, args...), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Logf("stderr:\n%s", errb.String())
		return code, nil, ""
	}
	var rec record
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
		t.Fatalf("record line: %v", err)
	}
	return code, &rec, lines[len(lines)-1]
}

// checkResultLine asserts the contract's result object: exactly the
// four keys, attempted at least 1, and every wanted metric present with
// its unit.
func checkResultLine(t *testing.T, line string, want []metricSpec) {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &raw); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys = %s", got)
	}
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatal(err)
	}
	if res.Attempted < 1 {
		t.Errorf("attempted = %d", res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s = %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
}

func TestSmokeEachWorkloadAtToyScale(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := quickGolden(t, nil)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			start := time.Now()
			code, rec, line := runBench(t, t.TempDir(), "-workload", w, "-seed", "3", "-seconds", "2", "-toy", "-golden", golden)
			if code != 0 || rec == nil {
				t.Fatalf("exit %d, record %+v", code, rec)
			}
			if !rec.Correct || rec.Failed != 0 {
				t.Errorf("correct=%v failed=%d checks=%+v", rec.Correct, rec.Failed, rec.Checks)
			}
			checkResultLine(t, line, spec.EndToEnd)
			for name, m := range rec.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			if d := time.Since(start); d > 10*time.Second && !raceEnabled {
				t.Errorf("toy run took %v, want under 10s", d)
			}
		})
	}
}

func TestCorruptedGoldenFailsTheRun(t *testing.T) {
	golden := quickGolden(t, func(rep map[string]any) {
		first := rep["experiments"].([]any)[0].(map[string]any)
		sim := first["sim"].(map[string]any)
		sim["rounds"] = sim["rounds"].(float64) + 1
	})
	code, rec, _ := runBench(t, t.TempDir(), "-workload", "registry", "-toy", "-golden", golden)
	if code == 0 {
		t.Fatal("a corrupted golden exited 0")
	}
	if rec == nil || rec.Correct {
		t.Fatalf("record %+v, want correct=false", rec)
	}
	for _, c := range rec.Checks {
		if c.Name == "experiments_equal_golden" && !c.OK && strings.Contains(c.Detail, "fig1") {
			return
		}
	}
	t.Errorf("no failed experiments_equal_golden check naming fig1: %+v", rec.Checks)
}

func TestTracedRunWritesTracesAndLayers(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := quickGolden(t, nil)
	for _, tc := range []struct {
		workload string
		nonZero  []string
	}{
		{"registry", []string{"exp.wall_s.fig1", "exp.sim_share", "engine.compute_s", "engine.exchange_s",
			"engine.ns_per_node_round", "comm.op_self_ms.AllToAllFixed", "trace.overhead_ratio"}},
		{"serve-miss", []string{"serve.run_wall_mean_ms", "ledger.append_p50_ms", "exp.envelope_us",
			"graph.make_ms", "serve.hash_us", "engine.compute_s"}},
		{"serve-hit", []string{"serve.mem_hit_ratio", "ledger.get_p50_us", "ledger.open_ms", "serve.hash_us"}},
		{"sweep-large", []string{"grid.cell_wall_ms.mst-sparse.n64", "graph.make_ms", "engine.compute_s",
			"comm.op_self_ms.SendToFew"}},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			work := t.TempDir()
			code, rec, line := runBench(t, work, "-workload", tc.workload, "-seed", "5", "-seconds", "2",
				"-toy", "-golden", golden, "-trace", "1")
			if code != 0 || rec == nil {
				t.Fatalf("exit %d, record %+v", code, rec)
			}
			checkResultLine(t, line, spec.PerLayer)
			for _, name := range tc.nonZero {
				if rec.Layers[name] <= 0 {
					t.Errorf("layer %s = %v, want > 0", name, rec.Layers[name])
				}
			}
			var events []chromeEvent
			data, err := os.ReadFile(filepath.Join(work, "trace", tc.workload+".spans.json"))
			if err == nil {
				err = json.Unmarshal(data, &events)
			}
			if err != nil || len(events) < 2 {
				t.Errorf("spans file: %d events, %v", len(events), err)
			}
			if _, err := cpuShares(filepath.Join(work, "trace", tc.workload+".cpu.pprof")); err != nil {
				t.Error(err)
			}
			if tc.workload == "registry" {
				// The per-experiment spans account for the pass.
				if s := rec.Layers["exp.wall_sum_share"]; s < 0.98 || s > 1 {
					t.Errorf("Σ exp.wall_s / wall = %v, want within 2%%", s)
				}
			}
		})
	}
}

func TestSerialLoopFinishesBlocksAndCountsFailures(t *testing.T) {
	var sent []int
	lat, walls, failed, first := serialLoop(20*time.Millisecond, 3, 0, func(i int) (time.Duration, error) {
		sent = append(sent, i)
		if i >= 3 {
			time.Sleep(10 * time.Millisecond)
		}
		if i == 2 {
			return time.Millisecond, errors.New("refused")
		}
		return time.Duration(i+1) * time.Millisecond, nil
	})
	// The first block is instant and the second takes 30 ms: the
	// deadline falls inside the second block, which still runs to its
	// end, and no third block starts.
	if len(walls) != 2 || len(lat) != 6 {
		t.Fatalf("%d blocks, %d latencies; want 2, 6", len(walls), len(lat))
	}
	if fmt.Sprint(sent) != "[0 1 2 3 4 5]" {
		t.Errorf("sent %v, want operations 0..5 in order", sent)
	}
	// The latency is what send reported, not the wall around it.
	if lat[0] != 1 || lat[5] != 6 {
		t.Errorf("latencies %v, want send's own 1 ms and 6 ms", lat)
	}
	if walls[1] < 0.03 {
		t.Errorf("second block wall %.4f s, want >= its three 10 ms sends", walls[1])
	}
	if !math.IsInf(lat[2], 1) || failed != 1 || first == nil {
		t.Errorf("failed operation: latency %v, %d failed, first %v; want +Inf, 1 and the error", lat[2], failed, first)
	}
	if p99, n := percentile(lat, 99); !math.IsInf(p99, 1) || n != 6 {
		t.Errorf("p99 = %v over %d samples, want +Inf over 6", p99, n)
	}
}

func TestSerialLoopRunsAtLeastMinOps(t *testing.T) {
	// The deadline has passed before the first block ends; the loop
	// still runs whole blocks until it has sent 7 operations.
	lat, walls, _, _ := serialLoop(time.Nanosecond, 3, 7, func(int) (time.Duration, error) {
		time.Sleep(time.Microsecond)
		return time.Microsecond, nil
	})
	if len(walls) != 3 || len(lat) != 9 {
		t.Errorf("%d blocks, %d operations; want 3 blocks, 9 operations", len(walls), len(lat))
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 500}, {99, 990}, {100, 1000}, {0, 1}} {
		if v, n := percentile(xs, tc.p); v != tc.want || n != 1000 {
			t.Errorf("percentile(1..1000, %v) = %v over %d, want %v over 1000", tc.p, v, n, tc.want)
		}
	}
	if v, n := percentile(nil, 50); v != 0 || n != 0 {
		t.Errorf("empty: %v over %d", v, n)
	}
}

func TestWindowedP99IgnoresOneStalledWindow(t *testing.T) {
	var ms []float64
	for w := 0; w < 3; w++ {
		for i := 1; i <= 1000; i++ {
			v := float64(i)
			if w == 1 {
				v = 5000 // a stall slows the whole middle window
			}
			ms = append(ms, v)
		}
	}
	if p, _ := percentile(ms, 99); p != 5000 {
		t.Fatalf("plain p99 = %v, want the stall's 5000", p)
	}
	if p := windowedP99(ms); p != 990 {
		t.Errorf("windowed p99 = %v, want 990", p)
	}
	if p, want := windowedP99(ms[:1500]), 5000.0; p != want {
		t.Errorf("under two windows the p99 is plain: got %v, want %v", p, want)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and quantiles([1, 2], n=4).
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	ivs := []interval{
		{name: "parent", start: 0, end: ms(10), parent: -1},
		{name: "a", start: ms(1), end: ms(3), parent: 0},
		{name: "b", start: ms(2), end: ms(5), parent: 0},
		{name: "a.child", start: ms(1), end: ms(2), parent: 1},
	}
	want := map[string]time.Duration{"parent": ms(6), "a": ms(1), "b": ms(3), "a.child": ms(1)}
	if got := selfTimes(ivs); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	ops := []interval{{start: 0, end: 10}, {start: 5, end: 6}, {start: 1, end: 4}, {start: 2, end: 3}}
	nestByContainment(ops)
	var parents []int
	for _, o := range ops {
		parents = append(parents, o.parent)
	}
	if fmt.Sprint(parents) != "[-1 0 0 2]" {
		t.Errorf("parents = %v, want [-1 0 0 2]", parents)
	}
}

func TestCPUSharesFoldsAProfile(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/engine.(*lockstep).run.func1": "engine",
		"net/http.(*conn).serve":                      "net_http",
		"runtime.mallocgc":                            "runtime_gc",
		"runtime.memmove":                             "runtime",
		"encoding/json.(*decodeState).object":         "encoding/json",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		_, _, _ = exp.Run([]string{"thm3"}, exp.Options{Quick: true})
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1: %v", sum, shares)
	}
}

func TestCompareAppliesTheBounds(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	write := func(scale map[string]float64) string {
		var b strings.Builder
		for i := 0; i < 5; i++ {
			r := record{Workload: "registry", result: result{Metrics: map[string]metricValue{}}}
			for _, m := range spec.EndToEnd {
				v := 100 * (1 + 0.01*float64(i))
				if s, ok := scale[m.Name]; ok {
					v *= s
				}
				r.Metrics[m.Name] = metricValue{v, m.Unit}
			}
			line, _ := json.Marshal(r)
			fmt.Fprintf(&b, "%s\n{\"correct\":true}\n", line)
		}
		path := filepath.Join(t.TempDir(), "runs.jsonl")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write(nil)
	var out bytes.Buffer
	if code := runCompare(spec, a, write(map[string]float64{"wall_s": 1.02}), &out, &out); code != 0 {
		t.Errorf("a 2%% change exited %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(spec, a, write(map[string]float64{"wall_s": 1.5}), &out, &out); code != 1 ||
		!strings.Contains(out.String(), "WORSE") {
		t.Errorf("a 50%% wall_s regression exited %d:\n%s", code, out.String())
	}
}

func TestSpecMatchesTheProgram(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(spec.PerLayer))
	}
	seen := map[string]bool{}
	var expIDs []string
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s defined twice", m.Name)
		}
		seen[m.Name] = true
		if id, ok := strings.CutPrefix(m.Name, "exp.wall_s."); ok {
			expIDs = append(expIDs, id)
		}
	}
	if fmt.Sprint(expIDs) != fmt.Sprint(exp.IDs()) {
		t.Errorf("exp.wall_s ids %v, registry %v", expIDs, exp.IDs())
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}
