// Command perfbench is the repository's end-to-end benchmark: it runs one
// workload against the served placement and generation paths, checks
// every answer against a differential oracle, and prints the metrics as
// one JSON object on the last line of standard output.
//
//	perfbench --workload sizing_loop --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 additionally runs a
// traced phase and per-layer probes and prints the per-layer metrics.
// See README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"queries_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"stored_share", "ratio"},
	{"answer_cost", "cost"},
	{"generate_s", "s"},
	{"coverage", "ratio"},
	{"gen_latency_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's per-layer metrics (--trace 1).
var perLayer = []metricDef{
	{"serve.handler_us", "us"},
	{"serve.handler_allocs", "count"},
	{"serve.spec_resolve_us", "us"},
	{"circuits.by_name_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.stage.cache_us", "us"},
	{"serve.stage.batch_wait_us", "us"},
	{"serve.stage.instantiate_us", "us"},
	{"serve.stage.encode_us", "us"},
	{"serve.stage.job_wait_us", "us"},
	{"serve.stage.job_run_us", "us"},
	{"serve.stage.store_read_us", "us"},
	{"serve.stage.compile_us", "us"},
	{"serve.unattributed_us", "us"},
	{"http.client_overhead_us", "us"},
	{"serve.cache_evictions", "count"},
	{"serve.gen_runs", "count"},
	{"mps.batch_us", "us"},
	{"core.covered_ns", "ns"},
	{"core.backup_ns", "ns"},
	{"portfolio.route_ns", "ns"},
	{"core.covered_share", "ratio"},
	{"portfolio.member_routed_share", "ratio"},
	{"gen.run_ms", "ms"},
	{"cost.evals", "count"},
	{"cost.eval_ms", "ms"},
	{"gen.search_ms", "ms"},
	{"explorer.iterations", "count"},
	{"explorer.accept_ratio", "ratio"},
	{"explorer.died_ratio", "ratio"},
	{"core.compile_ms", "ms"},
	{"core.encode_ms", "ms"},
	{"core.decode_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"jobs.queued_max", "count"},
	{"runtime.allocs_per_query", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead.latency_p50_us", "us"},
	{"trace.overhead.queries_per_s", "1/s"},
	{"trace.overhead.gen_run_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sizing_loop, batch_sweep, generate, churn")
	seed := fs.Int64("seed", 1, "seed for the workload's query decks, request order and churn specs")
	secs := fs.Float64("seconds", 10, "length of each timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced phase and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Per-run stores live under the build directory run.sh already uses,
	// inside the checkout.
	res, err := runWorkload(*name, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1, ".bench_build", stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// runWorkload runs one workload and assembles its result: the end-to-end
// metrics, or with trace the per-layer metrics. A summary, including
// error_rate and the first failures, goes to log.
func runWorkload(name string, seed int64, dur time.Duration, trace bool, workRoot string, log io.Writer) (*result, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs))
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}

	rep, err := wl.run(runConfig{seed: seed, dur: dur, trace: trace, workDir: dir, log: log})
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := &result{
		Attempted: rep.tally.attempted.Load(),
		Failed:    rep.tally.failed.Load(),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}

	fmt.Fprintf(log, "workload %s seed %d: attempted %d, failed %d, error_rate %g\n",
		name, seed, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, note := range rep.tally.notes {
		fmt.Fprintln(log, "  failure:", note)
	}
	names := make([]string, 0, len(rep.values))
	for n := range rep.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-34s %g\n", n, rep.values[n])
	}
	return res, nil
}
