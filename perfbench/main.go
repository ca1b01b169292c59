// Command perfbench is the repository benchmark. It runs one named
// workload — the paper reproduction (repro), the durable logged run plus
// its recovery (durable), or the HTTP adserver under load (adserver) —
// checks the workload's outputs, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// declares; with -trace 1 the workload runs once untraced and once with
// in-memory spans, and the metrics are the declared per-layer metrics
// (spans are written to .bench_build/traces/). Run it from the checkout
// root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload repro --seed 1 --seconds 10 --trace 0
//
// The program under test only ever sees inputs generated from -seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds int
	traced  bool
	// dir is a scratch directory the workload owns (event logs,
	// checkpoints); it is removed when the run ends.
	dir string
	// traceDir receives span files of traced runs.
	traceDir string
	host     hostInfo
}

// outcome is what a workload reports: operation counts and metric values
// by name. A traced run fills layer; an untraced run fills e2e and
// latency, the p50_ms and p99_ms figures the table prints but no bound
// covers (see perfbench/README.md).
type outcome struct {
	attempted int64
	failed    int64
	e2e       map[string]float64
	layer     map[string]float64
	latency   map[string]float64
}

// check counts one operation and whether it failed.
func (o *outcome) check(ok bool) bool {
	o.attempted++
	if !ok {
		o.failed++
	}
	return ok
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"repro":    runRepro,
	"durable":  runDurable,
	"adserver": runAdserver,
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: repro, durable or adserver")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 12, "measurement budget of the adserver load phases, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok || !sp.hasWorkload(*workload) {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}

	dir, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rc := runConfig{
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		dir:      dir,
		traceDir: filepath.Join(".bench_build", "traces"),
		host:     fingerprint(),
	}
	out, err := fn(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}

	declared, values := sp.EndToEnd, out.e2e
	if rc.traced {
		declared, values = sp.PerLayer, out.layer
	}
	metrics, err := selectMetrics(declared, values, !rc.traced)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	printReport(stdout, *workload, rc, out, declared, metrics)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec (run from the checkout root): %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// selectMetrics pairs the declared metrics with the measured values. A
// measured name the spec does not declare is a benchmark bug. A declared
// end-to-end metric must be measured; a declared per-layer metric of a
// layer this workload does not exercise reads 0.
func selectMetrics(declared []metricSpec, values map[string]float64, required bool) (map[string]metric, error) {
	out := make(map[string]metric, len(declared))
	for _, d := range declared {
		v, ok := values[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// printReport writes the human-readable block above the JSON line: the
// host fingerprint, every reported metric with its unit, and fail_share.
func printReport(w io.Writer, workload string, rc runConfig, out *outcome, declared []metricSpec, metrics map[string]metric) {
	fmt.Fprintf(w, "host: %s\n", rc.host)
	fmt.Fprintf(w, "workload: %s seed=%d seconds=%d trace=%t\n", workload, rc.seed, rc.seconds, rc.traced)
	names := make([]string, 0, len(declared))
	for _, d := range declared {
		names = append(names, d.Name)
	}
	if rc.traced {
		sort.Strings(names)
	}
	idle := 0
	for _, n := range names {
		m := metrics[n]
		if _, measured := out.layer[n]; rc.traced && !measured {
			idle++
			continue
		}
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if idle > 0 {
		fmt.Fprintf(w, "  (%d per-layer metrics of layers this workload does not exercise read 0)\n", idle)
	}
	for _, n := range []string{"p50_ms", "p99_ms"} {
		if v, ok := out.latency[n]; ok {
			fmt.Fprintf(w, "  %-40s %14.6g ms (reported, not gated)\n", n, v)
		}
	}
	fmt.Fprintf(w, "  %-40s %14.6g share (%d failed / %d attempted)\n", "fail_share",
		float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted)
}

// hostInfo fingerprints the machine a result came from; results are
// comparable only between runs with the same fingerprint.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", h.CPU, h.NProc, h.GOMAXPROCS, h.Go)
}

func fingerprint() hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
