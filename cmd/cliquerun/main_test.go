package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clique"
	"repro/internal/workload"
)

// Test-only entries: wrongAnswer's oracle disagrees with node 0, and
// failedCheck's Check rejects every run.
const (
	wrongAnswer = "test-wrong-answer"
	failedCheck = "test-failed-check"
)

func init() {
	workload.Register(workload.Algorithm{
		Name: wrongAnswer, Title: "test-only: answers 1, oracle says 2", WPP: 1,
		New: func(int, uint64) workload.Instance {
			return workload.Instance{Program: func(*clique.Node) {},
				Answer: func() any { return 1 }, Oracle: func() any { return 2 }}
		},
	})
	workload.Register(workload.Algorithm{
		Name: failedCheck, Title: "test-only: every Check fails", WPP: 1,
		New: func(int, uint64) workload.Instance {
			return workload.Instance{Program: func(*clique.Node) {}, Answer: func() any { return 1 },
				Check: func() error { return errors.New("forged witness") }}
		},
	})
}

// TestEveryCatalogueEntry drives the CLI over the whole catalogue on
// both backends and in both formats; every answer must match its oracle
// and pass its Check (run fails otherwise) and the JSON costs must equal a direct
// clique.Run of the catalogue program. Under -race it is also the
// regression test for node programs sharing one answer variable.
func TestEveryCatalogueEntry(t *testing.T) {
	for _, alg := range workload.All() {
		if strings.HasPrefix(alg.Name, "test-") {
			continue
		}
		want, err := clique.Run(clique.Config{N: 16, WordsPerPair: alg.WPP}, alg.New(16, 5).Program)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
		for _, backend := range clique.Backends() {
			args := []string{"-alg", alg.Name, "-n", "16", "-seed", "5", "-backend", backend}
			if text := runCLI(t, args...); !strings.Contains(text, "algorithm : "+alg.Name) || !strings.Contains(text, "(oracle agrees)") {
				t.Errorf("%s: text output:\n%s", alg.Name, text)
			}
			var rep runReport
			if err := json.Unmarshal([]byte(runCLI(t, append(args, "-format", "json")...)), &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Schema != "cliquerun/v2" || rep.Backend != backend || rep.WordsPerPair != alg.WPP ||
				rep.Rounds != want.Stats.Rounds || rep.Words != want.Stats.WordsSent {
				t.Errorf("%s: report %+v, direct run %d rounds / %d words", alg.Name, rep, want.Stats.Rounds, want.Stats.WordsSent)
			}
		}
	}
}

// TestWrongAnswerFails checks that a run whose answer differs from the
// oracle's still prints its report and then fails, naming both values,
// and that a run whose Check fails prints its report and writes its
// trace before it fails with the typed verdict.
func TestWrongAnswerFails(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		var out bytes.Buffer
		err := run([]string{"-alg", wrongAnswer, "-n", "4", "-format", format}, &out)
		if !errors.Is(err, workload.ErrWrongAnswer) || !strings.Contains(err.Error(), "n=4 seed=1: wrong answer: answer 1 (int) differs from the oracle's 2 (int)") {
			t.Errorf("%s: err %v", format, err)
		}
		if !strings.Contains(out.String(), "1 (oracle disagrees)") {
			t.Errorf("%s: output:\n%s", format, out.String())
		}
		// A failed Check keeps its evidence: the report and the trace.
		out.Reset()
		path := filepath.Join(t.TempDir(), "trace.json")
		err = run([]string{"-alg", failedCheck, "-n", "4", "-format", format, "-trace", path}, &out)
		if !errors.Is(err, workload.ErrFailedCheck) || !strings.Contains(err.Error(), failedCheck+" n=4 seed=1: failed check: forged witness") {
			t.Errorf("%s: failed check: err %v", format, err)
		}
		if !strings.Contains(out.String(), "(failed check)") || !strings.Contains(out.String(), failedCheck) {
			t.Errorf("%s: failed check: report:\n%s", format, out.String())
		}
		if data, err := os.ReadFile(path); err != nil || !json.Valid(data) || !bytes.Contains(data, []byte(failedCheck)) {
			t.Errorf("%s: failed check: trace file: %v, valid JSON %v", format, err, json.Valid(data))
		}
	}
}

func TestDotTraceAndUnknownNames(t *testing.T) {
	if out := runCLI(t, "-alg", "dot"); !strings.HasPrefix(out, "digraph") {
		t.Errorf("dot output starts %.40q", out)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	runCLI(t, "-alg", "exchange", "-n", "4", "-trace", path)
	if data, err := os.ReadFile(path); err != nil || !json.Valid(data) {
		t.Errorf("trace file: %v, valid JSON %v", err, json.Valid(data))
	}
	for _, args := range [][]string{{"-alg", "kis"}, {"-alg", "mm3d"}, {"-format", "yaml"}} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%q): %v", args, err)
	}
	return out.String()
}
