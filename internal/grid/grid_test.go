package grid_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clique"
	"repro/internal/grid"
	"repro/internal/workload"
)

func init() {
	workload.Register(workload.Algorithm{
		Name: "test-failed-check", Title: "test-only: seed 2's Check fails", WPP: 1,
		New: func(n int, seed uint64) workload.Instance {
			return workload.Instance{Program: func(nd *clique.Node) { nd.Tick() }, Check: func() error {
				if seed == 2 {
					return errors.New("forged witness")
				}
				return nil
			}}
		},
	})
}

// makeSynthetic builds a fixed sweep by hand: exchange at
// n ∈ {8, 16, 32} × seeds {1, 2} with rounds = n² (exact power law)
// and wall times {1, 2, 3} ms per cell.
func makeSynthetic(t *testing.T) (*grid.Spec, []grid.RunRecord) {
	t.Helper()
	spec, err := grid.ParseSpec([]byte(`{
	  "name": "synthetic",
	  "repeats": 3,
	  "experiments": [
	    {"algorithm": "exchange", "ns": [8, 16, 32], "seeds": [1, 2]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Expand()
	var records []grid.RunRecord
	for _, c := range cells {
		rounds := int64(c.N) * int64(c.N)
		for r := 0; r < 3; r++ {
			wall := int64(r+1) * 1e6
			records = append(records, grid.RunRecord{
				Cell: c, Repeat: r,
				Rounds: rounds, Words: rounds * 2,
				WallNS:       wall,
				RoundsPerSec: float64(rounds) / (float64(wall) / 1e9),
			})
		}
	}
	return spec, records
}

func TestRunsCSVRoundTrip(t *testing.T) {
	_, records := makeSynthetic(t)
	var buf bytes.Buffer
	if err := grid.WriteRunsCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	back, err := grid.ParseRunsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(records, back) {
		t.Fatalf("round-trip mismatch:\nwrote %+v\nread  %+v", records[0], back[0])
	}
}

func TestParseRunsCSVRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"wrong,header\n1,2\n",
		"cell,kind,algorithm,experiment,n,wpp,seed,quick,repeat,rounds,words,wall_ns,rounds_per_sec\n" +
			"x,algorithm,exchange,,8,1,1,false,0,64,128,1000000,64000\n",
	} {
		if _, err := grid.ParseRunsCSV(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseRunsCSV accepted %q", bad)
		}
	}
}

func TestSummarizeClosedForm(t *testing.T) {
	spec, records := makeSynthetic(t)
	rep := grid.Summarize(spec, records, "lockstep", 3, 1)
	if rep.Schema != grid.SchemaVersion || rep.Backend != "lockstep" || rep.Repeats != 3 {
		t.Fatalf("envelope: %+v", rep)
	}
	// 3 ns × 2 seeds = 6 cells → 3 groups (seeds aggregate), 18 runs.
	if len(rep.Groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(rep.Groups))
	}
	g := rep.Groups[0]
	if g.Key != "exchange/n=8/wpp=1" || g.Runs != 6 || g.Seeds != 2 {
		t.Fatalf("group 0: %+v", g)
	}
	// Model cost: one representative per seed, both 64 → zero-variance CI.
	if g.Rounds.Mean != 64 || g.Rounds.Std != 0 || g.Rounds.CILo != 64 || g.Rounds.CIHi != 64 {
		t.Fatalf("rounds summary: %+v", g.Rounds)
	}
	// Wall samples are {1,2,3,1,2,3} ms: mean 2 ms, std² = 6·(2/3)/5 = 0.8.
	// Half-width = t(0.975, 5) · std / √6 = 2.570582·√0.8e12/√6.
	wall := g.Timing.WallNS
	if wall.N != 6 || math.Abs(wall.Mean-2e6) > 1 {
		t.Fatalf("wall summary: %+v", wall)
	}
	wantHW := 2.570582 * math.Sqrt(0.8) * 1e6 / math.Sqrt(6)
	if hw := wall.HalfWidth(); math.Abs(hw-wantHW) > wantHW*1e-4 {
		t.Fatalf("wall half-width = %g, want %g", hw, wantHW)
	}
	// rounds = n² exactly → fitted exponent 2 with a tight CI.
	if len(rep.Fits) != 1 {
		t.Fatalf("got %d fits, want 1: %+v", len(rep.Fits), rep.Fits)
	}
	f := rep.Fits[0].Fit
	if math.Abs(f.Exponent-2) > 1e-9 || f.R2 < 0.999999 {
		t.Fatalf("fit: %+v", f)
	}
	if rep.Timing == nil || rep.Timing.Runs != 18 {
		t.Fatalf("run timing: %+v", rep.Timing)
	}
}

func TestStripTimingRemovesAllWallClock(t *testing.T) {
	spec, records := makeSynthetic(t)
	rep := grid.Summarize(spec, records, "lockstep", 3, 1)
	stripped := rep.StripTiming()
	data, err := json.Marshal(stripped)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"timing", "wall_ns", "rounds_per_sec"} {
		if bytes.Contains(data, []byte(needle)) {
			t.Fatalf("stripped summary still mentions %q:\n%s", needle, data)
		}
	}
	// The original is untouched.
	if rep.Timing == nil || rep.Groups[0].Timing == nil {
		t.Fatal("StripTiming mutated the source report")
	}
}

func TestRunGridDeterministicAcrossParallel(t *testing.T) {
	spec, err := grid.ParseSpec([]byte(`{
	  "name": "parallel-check",
	  "repeats": 2,
	  "warmup": 0,
	  "experiments": [
	    {"algorithm": "exchange", "ns": [4, 8], "seeds": [1, 2]},
	    {"algorithm": "triangle", "ns": [8]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallel int) (*grid.Report, []grid.RunRecord) {
		rep, recs, err := grid.Run(context.Background(), spec, grid.Options{Parallel: parallel})
		if err != nil {
			t.Fatalf("Run(parallel=%d): %v", parallel, err)
		}
		return rep, recs
	}
	rep1, recs1 := run(1)
	rep4, recs4 := run(4)
	if len(recs1) != 5*2 || len(recs1) != len(recs4) {
		t.Fatalf("got %d and %d records, want 10", len(recs1), len(recs4))
	}
	// Record order and model cost are identical whatever the pool width.
	for i := range recs1 {
		a, b := recs1[i], recs4[i]
		if a.Cell != b.Cell || a.Repeat != b.Repeat || a.Rounds != b.Rounds || a.Words != b.Words {
			t.Fatalf("record %d differs across parallel: %+v vs %+v", i, a, b)
		}
	}
	// The stripped summaries are byte-identical.
	var buf1, buf4 bytes.Buffer
	if err := rep1.StripTiming().WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := rep4.StripTiming().WriteJSON(&buf4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf4.Bytes()) {
		t.Fatalf("stripped summaries differ:\n%s\n---\n%s", buf1.Bytes(), buf4.Bytes())
	}
}

func TestRunGridExperimentCell(t *testing.T) {
	if testing.Short() {
		t.Skip("registry experiment in -short mode")
	}
	spec, err := grid.ParseSpec([]byte(`{
	  "repeats": 1, "warmup": 0,
	  "experiments": [{"experiment": "fig1", "quick": true}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, recs, err := grid.Run(context.Background(), spec, grid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Rounds <= 0 {
		t.Fatalf("records: %+v", recs)
	}
	if len(rep.Groups) != 1 || rep.Groups[0].Key != "exp:fig1/quick" {
		t.Fatalf("groups: %+v", rep.Groups)
	}
}

func TestRunGridCancel(t *testing.T) {
	spec, err := grid.ParseSpec([]byte(`{
	  "repeats": 1, "warmup": 0,
	  "experiments": [{"algorithm": "exchange", "ns": [8]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := grid.Run(ctx, spec, grid.Options{}); err == nil {
		t.Fatal("Run succeeded under a cancelled context")
	}
}

func TestWriteArtifacts(t *testing.T) {
	spec, records := makeSynthetic(t)
	rep := grid.Summarize(spec, records, "lockstep", 3, 1)
	dir := t.TempDir()
	if err := grid.WriteArtifacts(dir, rep, records, true); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{grid.RunsCSV, grid.SummaryJSON, grid.SummaryMD, grid.TablesTeX} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Fatalf("artefact %s: err=%v", name, err)
		}
	}
	plots, err := filepath.Glob(filepath.Join(dir, grid.PlotsDir, "*.svg"))
	if err != nil || len(plots) == 0 {
		t.Fatalf("no SVG plots written (err=%v)", err)
	}
	svg, err := os.ReadFile(plots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(svg, []byte("<svg ")) || !bytes.Contains(svg, []byte("</svg>")) {
		t.Fatalf("plot is not an SVG document:\n%.200s", svg)
	}
	// The CSV round-trips from disk.
	f, err := os.Open(filepath.Join(dir, grid.RunsCSV))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := grid.ParseRunsCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(records, back) {
		t.Fatal("runs.csv does not round-trip")
	}
	// The summary parses and carries the schema tag; timing retained
	// because withTiming was set.
	data, err := os.ReadFile(filepath.Join(dir, grid.SummaryJSON))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Schema string           `json:"schema"`
		Timing *grid.RunTiming  `json:"timing"`
		Groups []map[string]any `json:"groups"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if env.Schema != grid.SchemaVersion || env.Timing == nil || len(env.Groups) != 3 {
		t.Fatalf("summary envelope: %+v", env)
	}
}

func TestWriteArtifactsStripped(t *testing.T) {
	spec, records := makeSynthetic(t)
	rep := grid.Summarize(spec, records, "lockstep", 3, 1)
	dir := t.TempDir()
	if err := grid.WriteArtifacts(dir, rep, records, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, grid.SummaryJSON))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"timing"`)) {
		t.Fatalf("stripped summary.json still has timing:\n%s", data)
	}
}

// TestRunGridBatchMatchesSerial pins the -batch contract: batching
// same-shape seed sweeps changes neither the record order nor any model
// cost, so the stripped deterministic summary is byte-identical to a
// serial run's.
func TestRunGridBatchMatchesSerial(t *testing.T) {
	spec, err := grid.ParseSpec([]byte(`{
	  "name": "batch-check",
	  "repeats": 2,
	  "warmup": 1,
	  "experiments": [
	    {"algorithm": "exchange", "ns": [4, 8], "seeds": [1, 2, 3]},
	    {"algorithm": "triangle", "ns": [8], "seeds": [1, 2]},
	    {"algorithm": "mst", "ns": [8]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	run := func(batch bool) (*grid.Report, []grid.RunRecord) {
		rep, recs, err := grid.Run(context.Background(), spec, grid.Options{Batch: batch, Backend: "lockstep"})
		if err != nil {
			t.Fatalf("Run(batch=%v): %v", batch, err)
		}
		return rep, recs
	}
	repS, recsS := run(false)
	repB, recsB := run(true)
	if len(recsS) != len(recsB) {
		t.Fatalf("got %d batched records, want %d", len(recsB), len(recsS))
	}
	for i := range recsS {
		a, b := recsS[i], recsB[i]
		if a.Cell != b.Cell || a.Repeat != b.Repeat || a.Rounds != b.Rounds || a.Words != b.Words {
			t.Fatalf("record %d differs under -batch: %+v vs %+v", i, a, b)
		}
	}
	var bufS, bufB bytes.Buffer
	if err := repS.StripTiming().WriteJSON(&bufS); err != nil {
		t.Fatal(err)
	}
	if err := repB.StripTiming().WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufS.Bytes(), bufB.Bytes()) {
		t.Fatalf("stripped summaries differ under -batch:\n%s\n---\n%s", bufS.Bytes(), bufB.Bytes())
	}
}

// TestRunGridFailsOnCheck runs a grid whose second cell's Check fails,
// batched and serially: the grid must fail, naming that cell and the
// typed verdict.
func TestRunGridFailsOnCheck(t *testing.T) {
	spec, err := grid.ParseSpec([]byte(`{
	  "repeats": 1, "warmup": 0,
	  "experiments": [{"algorithm": "test-failed-check", "ns": [4], "seeds": [1, 2, 3]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []bool{false, true} {
		_, _, err := grid.Run(context.Background(), spec, grid.Options{Batch: batch})
		if !errors.Is(err, workload.ErrFailedCheck) ||
			!strings.Contains(err.Error(), "grid: cell 1 (test-failed-check/n=4/wpp=1): test-failed-check n=4 seed=2: failed check: forged witness") {
			t.Errorf("batch=%v: err %v", batch, err)
		}
	}
}
