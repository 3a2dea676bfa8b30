package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// runCompare reads two files of bench output (record lines; other lines
// are skipped) and prints, for each workload × end-to-end metric, both
// sides' median and quartiles, their spreads, and whether B's median is
// within the metric's bound of A's. It exits 1 if any pairing is worse
// than its bound.
func runCompare(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA n\tA q1\tA median\tA q3\tA spread\tB n\tB q1\tB median\tB q3\tB spread\tchange\tbound\tverdict\t")
	worse := 0
	for _, w := range sortedKeys(a) {
		for _, m := range spec.EndToEnd {
			av, bv := a[w][m.Name], b[w][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t\t\t\t\t%d\t\t\t\t\t\t\tmissing\t\n", w, m.Name, m.Unit, len(av), len(bv))
				worse++
				continue
			}
			aq, bq := quartiles(av), quartiles(bv)
			change := bq[1]/aq[1] - 1
			if m.Better == "higher" {
				change = -change
			}
			verdict := "within"
			switch {
			case change > m.Bound:
				verdict = "WORSE"
				worse++
			case change < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.3f\t%d\t%.4g\t%.4g\t%.4g\t%.3f\t%+.3f\t%.3f\t%s\t\n",
				w, m.Name, m.Unit, len(av), aq[0], aq[1], aq[2], spread(aq), len(bv), bq[0], bq[1], bq[2], spread(bq),
				change, m.Bound, verdict)
		}
	}
	tw.Flush()
	fmt.Fprintln(stdout, "change is B's median against A's, positive = worse; spread = (q3 - q1) / median")
	if worse > 0 {
		return 1
	}
	return 0
}

// readRecords collects the untraced record lines of a file by workload
// and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Workload == "" || r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no record lines", path)
	}
	return out, nil
}

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method). A
// single value is all three.
func quartiles(values []float64) [3]float64 {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	ld := len(x)
	if ld == 1 {
		return [3]float64{x[0], x[0], x[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q
}

// spread is the interquartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}
