// Command perfbench is the repository's benchmark. It runs one workload
// per invocation, in one process: in-process netstore servers on
// loopback driven through one netstore.Cluster by an open-loop pacer, or
// the simulator through workload.Generate and engine.RunTrace. It prints
// every metric by name and unit, checks every output, and ends with one
// JSON line holding the metrics BENCHMARK.json names for the mode.
//
//	perfbench --workload read-fanout --seed 1 --seconds 10 --trace 0
//	perfbench --workload read-fanout --seed 1 --seconds 10 --trace 1
//	perfbench compare -parent DIR -change DIR
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// defaultSeed is the seed to tune with; heldOutSeed is kept for
	// confirming a claimed gain on inputs the change was not tuned on.
	defaultSeed = 1
	heldOutSeed = 7919
	// setupReps is how many times a measured run sets up its workload;
	// setup_s is the median.
	setupReps = 7
	// benchDir holds the benchmark's working files (durable servers'
	// WALs, span dumps), relative to the directory it runs from.
	benchDir = ".bench_build"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

type options struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	tmp      string
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*wl]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	want, err := benchMetricNames(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o := options{workload: *wl, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, tmp: filepath.Join(benchDir, "tmp")}
	fp := fingerprint()
	head, _ := json.Marshal(map[string]any{"perfbench": map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": *seconds, "trace": *trace, "machine": fp}})
	fmt.Println(string(head))

	rep := newReport()
	if err := workloads[o.workload](o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.print()
	out := map[string]any{}
	for _, name := range want {
		m, ok := rep.metrics[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", o.workload, name)
			return 1
		}
		out[name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": len(rep.problems) == 0, "attempted": rep.attempted, "failed": rep.failed, "metrics": out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(rep.problems) > 0 || rep.attempted == 0 {
		return 1
	}
	return 0
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"read-fanout":   storeRunner(readFanout),
	"slow-replica":  storeRunner(slowReplica),
	"write-durable": storeRunner(writeDurable),
	"sim-fig2":      runSimFig2,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// benchFile is the part of BENCHMARK.json the benchmark reads.
type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchFile() (*benchFile, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// benchMetricNames lists the metrics the final line must carry.
func benchMetricNames(perLayer bool) ([]string, error) {
	b, err := readBenchFile()
	if err != nil {
		return nil, err
	}
	ms := b.EndToEnd
	if perLayer {
		ms = b.PerLayer
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	return names, nil
}

// metric is one measured value.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// report collects a run's metrics, op counts and correctness problems.
type report struct {
	metrics           map[string]metric
	order             []string
	attempted, failed int
	problems          []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64, note string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{name: name, unit: unit, value: v, note: note}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// tally adds a run's op outcomes to the attempted and failed counts.
func (r *report) tally(res *runResult) {
	for _, rec := range res.recs {
		r.attempted++
		if rec.out != okOutcome {
			r.failed++
		}
	}
}

func (r *report) print() {
	for _, name := range r.order {
		m := r.metrics[name]
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Printf("  %-42s %14.6g %-6s%s\n", m.name, m.value, m.unit, note)
	}
	fmt.Printf("  ops attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Println("  WRONG:", p)
	}
}

// fingerprint describes the machine and build a result came from.
func fingerprint() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     strings.TrimSpace(readFirst("/proc/sys/kernel/osrelease")),
		"commit":     gitCommit(),
	}
}

func readFirst(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

func cpuModel() string {
	for _, line := range strings.Split(readFirst("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a git repository has none.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	for _, line := range strings.Split(readFirst(".git/packed-refs"), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
