// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed wall-clock budget and prints every metric by
// name and unit, followed by a one-line JSON result:
//
//	bash perfbench/run.sh --workload sim-crowd --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// nothing attached to the program. With --trace 1 the same workload runs
// again with timing wrappers around the calls the benchmark makes into
// each layer, samplers reading the layers' public counters between
// simulation slices, and CPU profiles of the measured phases attributed to
// source files; the result carries the per-layer metrics. The benchmark
// adds no tracing inside the program itself.
//
// The process exits non-zero when a correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one reported metric. The catalog below is the single
// source of the names and units; BENCHMARK.json must list the same.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the user-visible metrics of an untraced run. Each workload
// reports all of them; what one "step" and one unit of work are differs
// by workload and is printed with the result.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"work_per_s", "1/s"},
	{"step_p50_ms", "ms"},
	{"step_tail_ms", "ms"},
}

// perLayer are the metrics of a traced run, named after the repository's
// modules. A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"trace.overhead", "ratio"},
	{"runtime.gc_share", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.self_share", "ratio"},
	{"sim.kernel.self_share", "ratio"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.fluid.self_share", "ratio"},
	{"sim.fluid.cpu_flows_mean", "flows"},
	{"sim.fluid.cpu_flows_max", "flows"},
	{"simnet.self_share", "ratio"},
	{"simnet.bytes", "B"},
	{"simnet.dropped", "count"},
	{"hostos.self_share", "ratio"},
	{"hostos.cpu_util", "ratio"},
	{"svcswitch.self_share", "ratio"},
	{"svcswitch.route_ns_mean", "ns"},
	{"svcswitch.routed", "count"},
	{"svcswitch.dropped", "count"},
	{"svcswitch.retried", "count"},
	{"appsvc.self_share", "ratio"},
	{"workload.self_share", "ratio"},
	{"workload.issued", "count"},
	{"workload.completed", "count"},
	{"workload.timeouts", "count"},
	{"workload.errors", "count"},
	{"workload.vlat_p50_ms", "ms"},
	{"workload.vlat_p99_ms", "ms"},
	{"soda.self_share", "ratio"},
	{"soda.create_ms", "ms"},
	{"soda.create_ms.tail", "ms"},
	{"soda.resize_ms", "ms"},
	{"soda.resize_ms.tail", "ms"},
	{"soda.teardown_ms", "ms"},
	{"soda.teardown_ms.tail", "ms"},
	{"soda.autoscale_tick_us", "us"},
	{"soda.state_digest_ms", "ms"},
	{"accounting.self_share", "ratio"},
	{"telemetry.self_share", "ratio"},
	{"journal.self_share", "ratio"},
	{"journal.bytes", "B"},
	{"journal.records", "count"},
	{"journal.replay_ms", "ms"},
	{"uml.self_share", "ratio"},
	{"image.self_share", "ratio"},
	{"realswitch.self_share", "ratio"},
	{"realswitch.serve_us", "us"},
	{"realswitch.self_us_mean", "us"},
	{"realswitch.routed", "count"},
	{"realswitch.retried", "count"},
	{"realswitch.dropped", "count"},
	{"realswitch.allocs_per_req", "count"},
	{"backend.serve_us", "us"},
	{"gen.late_ms", "ms"},
	{"gen.conns", "count"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed   uint64
	budget time.Duration
	trace  bool
	log    io.Writer // human-readable progress and per-workload notes
}

// report is a workload's outcome: operation counts, correctness checks,
// and metric values keyed by catalog name.
type report struct {
	attempted, failed int64
	checks            []check
	values            map[string]float64
	named             []namedValue
}

// namedValue is a figure printed, not reported, under the name the
// workload's users know it by, such as proxy_max_rps for proxy-live's
// work_per_s, with how it was taken.
type namedValue struct {
	name  string
	value float64
	unit  string
	how   string
}

// name records a named figure.
func (r *report) name(name string, value float64, unit, how string, args ...any) {
	r.named = append(r.named, namedValue{name, value, unit, fmt.Sprintf(how, args...)})
}

// check is one named correctness check.
type check struct {
	name   string
	ok     bool
	detail string
}

func newReport() *report { return &report{values: map[string]float64{}} }

// check records a correctness check.
func (r *report) check(name string, ok bool, detail string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(detail, args...)})
}

// correct reports whether every check passed.
func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// setTiming stores a step timing under the end-to-end step metrics.
func (r *report) setTiming(t timing) {
	r.values["step_p50_ms"] = t.P50
	r.values["step_tail_ms"] = t.Tail
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	// step and work name what step_*_ms and work_per_s measure here.
	step, work string
	run        func(cfg runConfig) (*report, error)
}

// workloads is the registry, in BENCHMARK.json order.
var workloads = []workloadDef{
	{"sim-crowd", "wall time to simulate one 10 ms virtual slice",
		"virtual seconds simulated per host second", runSimCrowd},
	{"sim-paper", "wall time to simulate one 100 ms virtual slice",
		"virtual seconds simulated per host second", runSimPaper},
	{"ctl-churn", "wall time of one create, resize or teardown",
		"control operations per host second", runCtlChurn},
	{"proxy-live", "p50: request latency from its due time at the low rate; tail: the median of the high rate's 25 ms windows' p90",
		"highest offered req/s meeting the p99 limit without backlog", runProxyLive},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// minReps is the fewest repetitions a run makes.
const minReps = 3

// repeat calls one until the budget is spent, and at least minReps times.
// An untraced run passes no tracer and returns every repetition as plain.
// A traced run spends the first half of its budget on plain, untraced
// repetitions, the reference for its digests and its overhead, and the
// second half on repetitions it passes the tracer, which each opens and
// closes around its measured phase.
func repeat[R any](cfg runConfig, one func(tr *tracer) (R, error)) (plain, traced []R, tr *tracer, err error) {
	loop := func(budget time.Duration, least int, tr *tracer) ([]R, error) {
		var reps []R
		deadline := time.Now().Add(budget)
		for len(reps) < least || time.Now().Before(deadline) {
			r, err := one(tr)
			if err != nil {
				return nil, err
			}
			reps = append(reps, r)
		}
		return reps, nil
	}
	if !cfg.trace {
		plain, err = loop(cfg.budget, minReps, nil)
		return
	}
	if plain, err = loop(cfg.budget/2, 2, nil); err != nil {
		return
	}
	tr = newTracer()
	traced, err = loop(cfg.budget/2, minReps, tr)
	return
}

// digestCheck names the digest comparison of a run: repetitions against
// each other, or traced repetitions against the untraced reference.
func digestCheck(cfg runConfig) string {
	if cfg.trace {
		return "traced digest = untraced"
	}
	return "same-seed digest"
}

// metricOut is one metric in the JSON result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed as the last line of output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses flags, runs the workload, and prints the result. It returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 10, "measured wall-clock budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1, log: stdout}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d (%s)\n", w.name, cfg.seed, *seconds, mode)
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if !cfg.trace {
		rep.values["rss_peak_mb"] = rssPeakMB()
	}
	res, err := assemble(rep, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printHuman(stdout, w, rep, res, cfg.trace)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// assemble builds the result line from the catalog. An untraced run must
// have produced every end-to-end metric; a traced run reports every
// per-layer metric, 0 for layers the workload bypasses.
func assemble(rep *report, trace bool) (resultLine, error) {
	res := resultLine{
		Correct:   rep.correct(),
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok && !trace {
			return res, fmt.Errorf("metric %s not measured", d.Name)
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// printHuman writes the readable summary that precedes the JSON line.
func printHuman(w io.Writer, wd workloadDef, rep *report, res resultLine, trace bool) {
	for _, c := range rep.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %-28s %s  %s\n", c.name, verdict, c.detail)
	}
	fmt.Fprintf(w, "  %-28s %14.6g ratio  %d failed of %d attempted\n", "fail_ratio",
		failRatio(res.Attempted, res.Failed), res.Failed, res.Attempted)
	if !trace {
		for _, n := range rep.named {
			fmt.Fprintf(w, "  %-28s %14.6g %s  %s\n", n.name, n.value, n.unit, n.how)
		}
		fmt.Fprintf(w, "  work_per_s = %s; step = %s\n", wd.work, wd.step)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// rssPeakMB returns the process's peak resident set size in MiB.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtStats is a snapshot of the runtime counters the traced run reports.
type rtStats struct {
	gcCPU, totalCPU, idleCPU float64
	allocs                   uint64
}

var rtSampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtSampleNames))
	for i, n := range rtSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	var allocs uint64
	if s[3].Value.Kind() == metrics.KindUint64 {
		allocs = s[3].Value.Uint64()
	}
	return rtStats{gcCPU: f(0), totalCPU: f(1), idleCPU: f(2), allocs: allocs}
}
