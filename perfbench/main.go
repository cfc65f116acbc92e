// Command perfbench is the repository's benchmark: it drives the MooD
// engine and service through their public APIs on seeded workloads,
// checks every run's output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics of a separate traced pass) as
// one JSON line.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload drift-retrain --seed 1 --seconds 30 --trace 0
//
// Workloads: drift-retrain and routed (the ones BENCHMARK.json lists),
// ingest and release. See perfbench/README.md for what each measures
// and why.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"mood/internal/clock"
	"mood/internal/core"
)

// metricSpec names one output metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run; BENCHMARK.json lists
// the same names and units. They exist on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"complete_s", "s"},
	{"chunks_per_s", "1/s"},
}

// reported are the end-to-end metrics printed by name and unit before
// the result line, without a bound: most exist on some workloads only,
// and the resident peak swings by a third between identical ingest
// runs with the timing of garbage collection.
var reported = []metricSpec{
	{"peak_rss_mb", "MB"},
	{"upload_p50_ms", "ms"},
	{"upload_p99_ms", "ms"},
	{"retrain_s", "s"},
	{"page_p50_ms", "ms"},
	{"page_p99_ms", "ms"},
	{"failed_ratio", "ratio"},
	{"records_published", "count"},
	{"records_quarantined", "count"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricSpec{
	{"service.queue_wait_ms.p50", "ms"},
	{"service.queue_wait_ms.p99", "ms"},
	{"service.self_ms", "ms"},
	{"service.shed", "count"},
	{"core.protect_ms.busy", "ms"},
	{"core.protect_ms.self", "ms"},
	{"core.pieces_per_candidate", "ratio"},
	{"core.candidates", "count"},
	{"core.attack_calls", "count"},
	{"core.splits", "count"},
	{"lppm.obfuscate_ms.hmc", "ms"},
	{"lppm.obfuscate_ms.geoi", "ms"},
	{"lppm.obfuscate_ms.trl", "ms"},
	{"lppm.calls", "count"},
	{"attack.identify_ms.ap", "ms"},
	{"attack.identify_ms.poi", "ms"},
	{"attack.identify_ms.pit", "ms"},
	{"attack.identify_calls", "count"},
	{"attack.hit_ratio", "ratio"},
	{"metrics.std_ms", "ms"},
	{"attack.train_ms", "ms"},
	{"attack.audit_ms", "ms"},
	{"attack.audit_pairs", "count"},
	{"attack.quarantine_ratio", "ratio"},
	{"store.append_ms.p50", "ms"},
	{"store.append_ms.p99", "ms"},
	{"store.appends", "count"},
	{"store.records_per_append", "count"},
	{"store.fsyncs", "count"},
	{"store.fsync_ms", "ms"},
	{"store.bytes", "B"},
	{"store.recover_ms", "ms"},
	{"cluster.hop_ms", "ms"},
	{"cluster.gather_ms", "ms"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_bytes_per_chunk", "B"},
	{"gen.lag_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     sizes
	dir      string // scratch directory, removed afterwards
	spansOut string // where a traced run writes its spans ("" = nowhere)
	mutate   func(*core.Result)
}

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses flags, runs the workload and prints the report. It
// returns 0 on a checked run, 1 when the output check failed and 2 on
// a harness error.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "run length in seconds; scales the open loops and the routed repetitions")
	traced := fs.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return 2, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return 2, errors.New("run from the root of the repository")
	}
	dir, err := os.MkdirTemp(".bench_build", "run-*")
	if err != nil {
		return 2, err
	}
	//mood:allow persistio -- the benchmark's scratch directory of throwaway write-ahead logs
	defer os.RemoveAll(dir)
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1, size: fullSize, dir: dir}
	if cfg.trace {
		cfg.spansOut = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	res, lines, err := bench(cfg)
	if err != nil {
		return 2, err
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(stdout, string(data))
	if !res.Correct {
		return 1, errors.New("output check failed")
	}
	return 0, nil
}

// bench runs cfg and returns the result line plus the report lines
// that precede it.
func bench(cfg config) (result, []string, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return result{}, nil, err
	}
	size := cfg.size
	if cfg.trace {
		// A traced run makes two passes. Half the populations and
		// repetitions in each keep it near the length of one untraced
		// run, well inside the benchmark's per-run time limit.
		size.driftPops = (size.driftPops + 1) / 2
		size.routedReps = (size.routedReps + 1) / 2
	}
	if err := w.generate(cfg.seed, size); err != nil {
		return result{}, nil, fmt.Errorf("generating inputs: %w", err)
	}
	clk := clock.System()
	mkEnv := func(traced bool, tag string) *env {
		e := &env{seed: cfg.seed, seconds: cfg.seconds, size: size,
			dir: filepath.Join(cfg.dir, tag), workers: runtime.NumCPU(), clk: clk, mutate: cfg.mutate}
		e.origin = clk.Now()
		if traced {
			e.rec = newRecorder(clk, e.origin)
		}
		return e
	}

	lines := []string{stamp(cfg)}
	res := result{Metrics: map[string]metric{}}
	untraced, err := w.pass(mkEnv(false, "plain"))
	if err != nil {
		return result{}, nil, err
	}
	violations := untraced.ck.violations
	res.Attempted, res.Failed = untraced.attempts, untraced.failures
	if untraced.attempts > 0 {
		untraced.metrics["failed_ratio"] = float64(untraced.failures) / float64(untraced.attempts)
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), reported...) {
		v, ok := untraced.metrics[s.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("perfbench: %s = %.6g %s", s.name, v, s.unit)
		if prefix, _, found := strings.Cut(s.name, "_p"); found {
			if n, ok := untraced.samples[prefix]; ok {
				line += fmt.Sprintf(" (n=%d)", n)
			}
		}
		lines = append(lines, line)
	}

	if !cfg.trace {
		for _, s := range endToEnd {
			res.Metrics[s.name] = metric{Value: untraced.metrics[s.name], Unit: s.unit}
		}
	} else {
		te := mkEnv(true, "traced")
		traced, err := w.pass(te)
		if err != nil {
			return result{}, nil, err
		}
		violations = append(violations, traced.ck.violations...)
		res.Attempted += traced.attempts
		res.Failed += traced.failures
		if traced.digest != untraced.digest {
			violations = append(violations, fmt.Sprintf("traced output %s differs from untraced %s", traced.digest, untraced.digest))
		}
		layers := layerMetrics(&traced, te.rec)
		layers["trace.overhead"] = traced.metrics["complete_s"]/untraced.metrics["complete_s"] - 1
		for _, s := range perLayer {
			v := layers[s.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
			lines = append(lines, fmt.Sprintf("perfbench: %s = %.6g %s", s.name, v, s.unit))
		}
		if err := writeSpans(cfg.spansOut, traced.spans); err != nil {
			return result{}, nil, err
		}
	}
	for _, v := range violations {
		lines = append(lines, "perfbench: CHECK FAILED: "+v)
	}
	res.Correct = len(violations) == 0
	lines = append(lines, fmt.Sprintf("perfbench: output digest %s, %d violation(s)", untraced.digest, len(violations)))
	return res, lines, nil
}

// stamp identifies the host and run, so numbers from different hosts
// are never compared.
func stamp(cfg config) string {
	return fmt.Sprintf("perfbench: workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d nproc=%d cpu=%q go=%s",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB. Where
// /proc is missing it falls back to the memory the Go runtime holds.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS lowers the kernel's resident high-water mark to the
// current resident set, so peak_rss_mb covers the measured work and
// not the set-ups and teardowns around it. Where the kernel does not
// support it, the mark covers the whole process.
func resetPeakRSS() {
	//mood:allow persistio -- writes the kernel's /proc/self/clear_refs control file, not data
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // best effort, see above
}

// writeSpans writes a traced pass's spans as JSON lines in recording
// order; a span's parent is the line number (from 0) it names.
func writeSpans(path string, spans []span) error {
	if path == "" {
		return nil
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	//mood:allow persistio -- benchmark artifact: the traced run's spans, written once at the end
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
