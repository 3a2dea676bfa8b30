// Command cliquerun runs one entry of the workload catalogue
// (internal/workload) on its generated instance and prints node 0's
// answer, the centralized oracle's and the model costs — a
// command-line window into the simulator. It fails when the answer and
// the oracle's differ.
//
// Usage:
//
//	cliquerun -alg triangle -n 64 -seed 7
//	cliquerun -alg k-ds -n 64 -backend goroutine
//	cliquerun -alg apsp -n 27 -wpp 2          # override the entry's word budget
//	cliquerun -alg sort -n 16 -format=json    # machine-readable result
//	cliquerun -alg mst -trace=mst.json        # Chrome trace for Perfetto
//	cliquerun -alg dot                        # print the Figure 1 map as Graphviz
//
// -alg takes any catalogue name, or dot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/clique"
	"repro/internal/fgc"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cliquerun:", err)
		os.Exit(2)
	}
}

// runReport is the cliquerun -format=json envelope.
type runReport struct {
	Schema       string  `json:"schema"`
	Algorithm    string  `json:"algorithm"`
	Backend      string  `json:"backend"`
	N            int     `json:"n"`
	Seed         uint64  `json:"seed"`
	WordsPerPair int     `json:"words_per_pair"`
	Answer       string  `json:"answer"`
	Rounds       int     `json:"rounds"`
	Words        int64   `json:"words"`
	Bits         int64   `json:"bits"`
	MaxPairWords int     `json:"max_pair_words"`
	WallNS       int64   `json:"wall_ns"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cliquerun", flag.ExitOnError)
	name := fs.String("alg", "triangle", "catalogue algorithm to run ("+strings.Join(workload.Names(), ", ")+"), or dot")
	n := fs.Int("n", 32, "number of nodes")
	seed := fs.Uint64("seed", 1, "instance seed")
	wpp := fs.Int("wpp", 0, "words per pair per round (0: the algorithm's default)")
	backend := fs.String("backend", clique.DefaultBackend, "execution backend ("+strings.Join(clique.Backends(), ", ")+")")
	format := fs.String("format", "text", "output format (text, json)")
	traceFile := fs.String("trace", "", "run with the round-level tracer and write a Chrome trace-event file (Perfetto) to this path")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits before Parse returns
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown format %q (text, json)", *format)
	}
	if *name == "dot" {
		_, err := io.WriteString(stdout, fgc.Figure1(3).DOT())
		return err
	}
	alg, ok := workload.Get(*name)
	if !ok {
		return fmt.Errorf("unknown algorithm %q (valid: %s, dot)", *name, strings.Join(workload.Names(), ", "))
	}
	if *wpp == 0 {
		*wpp = alg.WPP
	}

	cfg := clique.Config{N: *n, WordsPerPair: *wpp, Backend: *backend}
	var col *trace.Collector
	if *traceFile != "" {
		col = trace.NewCollector(alg.Name, *n, *wpp)
		col.SetBackend(*backend)
		cfg.Tracer = col
	}
	r := workload.RunBatch(cfg, []workload.Spec{{Alg: alg, Seed: *seed}})[0]
	if r.Err != nil {
		return r.Err
	}
	if col != nil {
		if err := writeTrace(*traceFile, col.Finish()); err != nil {
			return err
		}
	}

	got := r.Answer()
	answer := fmt.Sprint(got)
	var wrong error
	if r.Oracle != nil {
		want := r.Oracle()
		answer += fmt.Sprintf(" (oracle %v)", want)
		if got != want {
			wrong = fmt.Errorf("%s: answer %v (%T) differs from the oracle's %v (%T)", alg.Name, got, got, want, want)
		}
	}
	res := r.Result
	roundsPerSec := float64(res.Stats.Rounds) / r.Wall.Seconds()
	var err error
	if *format == "json" {
		// A single-run sibling of the cliquebench report schema: the
		// model costs are deterministic, the wall block is measured.
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(runReport{
			Schema: "cliquerun/v2", Algorithm: alg.Name, Backend: *backend,
			N: *n, Seed: *seed, WordsPerPair: *wpp, Answer: answer,
			Rounds: res.Stats.Rounds, Words: res.Stats.WordsSent,
			Bits: res.Stats.BitsSent, MaxPairWords: res.Stats.MaxPairWords,
			WallNS: r.Wall.Nanoseconds(), RoundsPerSec: roundsPerSec,
		})
	} else {
		_, err = fmt.Fprintf(stdout, "algorithm : %s — %s\nbackend   : %s\ninstance  : n=%d seed=%d, %d words per pair\n"+
			"answer    : %s\ncost      : %d rounds, %d words, %d bits, busiest link %d words/round\n"+
			"wall      : %v (%.0f rounds/sec on the %s backend)\n",
			alg.Name, alg.Title, *backend, *n, *seed, *wpp, answer,
			res.Stats.Rounds, res.Stats.WordsSent, res.Stats.BitsSent, res.Stats.MaxPairWords,
			r.Wall.Round(time.Microsecond), roundsPerSec, *backend)
	}
	if err != nil {
		return err
	}
	return wrong
}

// writeTrace writes one run's trace as a Chrome trace-event file.
func writeTrace(path string, tr *trace.RunTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, []*trace.RunTrace{tr}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
