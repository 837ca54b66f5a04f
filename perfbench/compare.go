package main

// The comparator: perfbench compare -parent DIR -change DIR. Each
// directory holds the saved standard output of runs, one file per run.
// For every workload and end-to-end metric it prints both sides' median
// and quartiles and flags only moves beyond the metric's bound in
// BENCHMARK.json; a metric whose parent runs spread wider than its bound
// is reported as unresolved unless every change run beats every parent
// run. Per-layer metrics of traced runs are listed with their medians.
// Both sides must hold runs of the same seeds and lengths, and a change
// run that reported wrong output fails the comparison.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runFile is one saved run: its header and its final result line.
type runFile struct {
	workload string
	trace    int
	seed     uint64
	seconds  int
	correct  bool
	metrics  map[string]float64
}

func readRunFile(path string) (*runFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var head struct {
		Perfbench *struct {
			Workload string `json:"workload"`
			Trace    int    `json:"trace"`
			Seed     uint64 `json:"seed"`
			Seconds  int    `json:"seconds"`
		} `json:"perfbench"`
	}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if head.Perfbench == nil && strings.HasPrefix(line, `{"perfbench"`) {
			if err := json.Unmarshal([]byte(line), &head); err != nil {
				return nil, fmt.Errorf("%s: header: %w", path, err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if head.Perfbench == nil {
		return nil, fmt.Errorf("%s: no perfbench header line", path)
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", path, err)
	}
	h := head.Perfbench
	r := &runFile{workload: h.Workload, trace: h.Trace, seed: h.Seed, seconds: h.Seconds, correct: res.Correct, metrics: map[string]float64{}}
	for k, v := range res.Metrics {
		r.metrics[k] = v.Value
	}
	return r, nil
}

func readRunDir(dir string) ([]*runFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []*runFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		r, err := readRunFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// quartiles returns Q1, median and Q3 of xs the way Python's
// statistics.quantiles(xs, n=4) and statistics.median compute them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// verdict compares one metric's parent and change runs.
func verdict(m benchMetric, parent, change []float64) string {
	pq1, pmed, pq3 := quartiles(parent)
	_, cmed, _ := quartiles(change)
	if pmed == 0 {
		return "unresolved (parent median is 0)"
	}
	worse := (cmed - pmed) / pmed
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if (m.Better == "higher" && c <= p) || (m.Better != "higher" && c >= p) {
				allBetter = false
			}
		}
	}
	switch spread := (pq3 - pq1) / pmed; {
	case spread > m.Bound && allBetter:
		return fmt.Sprintf("better in every run (%+.1f%%)", -worse*100)
	case spread > m.Bound:
		return fmt.Sprintf("unresolved: parent spread %.1f%% exceeds bound %.0f%%", spread*100, m.Bound*100)
	case worse > m.Bound:
		return fmt.Sprintf("REGRESSION: %.1f%% worse, bound %.0f%%", worse*100, m.Bound*100)
	case -worse > m.Bound:
		return fmt.Sprintf("better beyond bound (%.1f%%)", -worse*100)
	}
	return "within bound"
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	parentDir := fs.String("parent", "", "directory of the parent commit's saved runs")
	changeDir := fs.String("change", "", "directory of the change's saved runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parentDir == "" || *changeDir == "" {
		fmt.Fprintln(os.Stderr, "perfbench compare: need -parent DIR and -change DIR")
		return 2
	}
	bench, err := readBenchFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	sides := [2][]*runFile{}
	for i, dir := range []string{*parentDir, *changeDir} {
		if sides[i], err = readRunDir(dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 1
		}
	}
	if err := sameInputs(sides[0], sides[1]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	// values[side][trace][workload][metric]
	values := [2]map[int]map[string]map[string][]float64{}
	workloadSet := map[string]bool{}
	wrong := 0
	for i, runs := range sides {
		values[i] = map[int]map[string]map[string][]float64{0: {}, 1: {}}
		for _, r := range runs {
			if !r.correct {
				fmt.Printf("%s: a %s run with seed %d reported wrong output\n", []string{"parent", "change"}[i], r.workload, r.seed)
				if i == 1 {
					wrong++
				}
			}
			workloadSet[r.workload] = true
			byW := values[i][r.trace]
			if byW[r.workload] == nil {
				byW[r.workload] = map[string][]float64{}
			}
			for k, v := range r.metrics {
				byW[r.workload][k] = append(byW[r.workload][k], v)
			}
		}
	}
	var wls []string
	for w := range workloadSet {
		wls = append(wls, w)
	}
	sort.Strings(wls)
	regressions := 0
	for _, w := range wls {
		p, c := values[0][0][w], values[1][0][w]
		fmt.Printf("\n%s (end to end: %d parent runs, %d change runs)\n", w, len(p["setup_s"]), len(c["setup_s"]))
		fmt.Printf("  %-28s %-32s %-32s %s\n", "metric", "parent q1 / median / q3", "change q1 / median / q3", "verdict")
		for _, m := range bench.EndToEnd {
			if len(p[m.Name]) == 0 || len(c[m.Name]) == 0 {
				continue
			}
			pq1, pm, pq3 := quartiles(p[m.Name])
			cq1, cm, cq3 := quartiles(c[m.Name])
			v := verdict(m, p[m.Name], c[m.Name])
			if strings.HasPrefix(v, "REGRESSION") {
				regressions++
			}
			fmt.Printf("  %-28s %9.4g / %9.4g / %9.4g  %9.4g / %9.4g / %9.4g  %s\n", m.Name+" ("+m.Unit+")", pq1, pm, pq3, cq1, cm, cq3, v)
		}
		p, c = values[0][1][w], values[1][1][w]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		fmt.Printf("  per layer (traced runs; medians, no bounds)\n")
		for _, m := range bench.PerLayer {
			if len(p[m.Name]) == 0 || len(c[m.Name]) == 0 {
				continue
			}
			pm, cm := median(p[m.Name]), median(c[m.Name])
			fmt.Printf("  %-44s %12.5g -> %12.5g %s\n", m.Name, pm, cm, m.Unit)
		}
	}
	if regressions > 0 {
		fmt.Printf("\n%d regression(s) beyond bound\n", regressions)
	}
	if wrong > 0 {
		fmt.Printf("\n%d change run(s) reported wrong output\n", wrong)
	}
	if regressions > 0 || wrong > 0 {
		return 1
	}
	return 0
}

// sameInputs checks that the parent and change runs cover the same
// (workload, trace, seed, seconds) combinations, each as often.
func sameInputs(parent, change []*runFile) error {
	count := map[string]int{}
	key := func(r *runFile) string {
		return fmt.Sprintf("%s --trace %d --seed %d --seconds %d", r.workload, r.trace, r.seed, r.seconds)
	}
	for _, r := range parent {
		count[key(r)]++
	}
	for _, r := range change {
		count[key(r)]--
	}
	var diff []string
	for k, n := range count {
		if n != 0 {
			diff = append(diff, fmt.Sprintf("%s (%+d on the parent side)", k, n))
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		return fmt.Errorf("parent and change runs differ in inputs: %s", strings.Join(diff, "; "))
	}
	return nil
}
