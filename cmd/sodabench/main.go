// Command sodabench regenerates every table and figure of the paper's
// evaluation (HPDC 2003, §4.3 and §5), plus the platform's ablations and
// behavioural smokes, and prints each in the paper's row/series format
// with shape checks against the published results.
//
// Usage:
//
//	sodabench                        # run every experiment
//	sodabench -exp table2            # one experiment
//	sodabench -list                  # list experiment ids
//	sodabench -exp failover -out BENCH_failover.json
//
// An experiment passes when every rendered shape line reads
// shape[PASS]; the command exits 1 if any reads shape[FAIL]. -out writes
// the selected experiment's result as JSON before that verdict, so a
// failing run still leaves its report. It needs one -exp id, not all.
//
// -seed, -duration and -replicas parameterise the entries that take
// them. -seed seeds chaos, failover, primescale and autoscale (default
// 1). -duration 0, the default, leaves each entry its own run length:
// 20 s virtual for chaos and failover, 60 s virtual for autoscale.
// -replicas sizes the primescale mass prime (default 32). The CI smokes
// run, for example:
//
//	sodabench -exp chaos -seed 1 -duration 20s -out BENCH_chaos.json
//	sodabench -exp primescale -replicas 8 -seed 1 -out BENCH_prime.json
//	sodabench -exp autoscale -seed 1 -duration 60s -out BENCH_autoscale.json
//
// flight and reqtrace measure what the flight recorder (gate ≤5%) and
// the tail-sampled request tracer (gate ≤2%) cost the routing hot path;
// they are wall-clock measurements, so their numbers vary run to run.
//
// -throughput is a separate mode: a live, wall-clock benchmark of the
// realswitch data plane, with real loopback HTTP backends, a real
// reverse proxy and concurrent keep-alive clients. -duration is its
// measurement window (default 5 s), and -slo-p99-ms/-slo-availability
// turn it into an SLO gate:
//
//	sodabench -throughput -backends 4 -conc 16 -duration 5s -out BENCH_slo.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
)

type experiment struct {
	id   string
	what string
	run  func() (exp.Result, error)
}

// params are the run parameters shared by every entry of the table.
type params struct {
	seed     uint64
	duration time.Duration // 0 = each entry's own default
	replicas int
}

// or returns the given -duration, or def when none was given.
func (p params) or(def time.Duration) time.Duration {
	if p.duration > 0 {
		return p.duration
	}
	return def
}

// experiments is the table behind -exp.
func experiments(p params) []experiment {
	return []experiment{
		{"table1", "machine configuration M", func() (exp.Result, error) { return exp.RunTable1() }},
		{"table2", "service bootstrapping time (4 services × 2 hosts)", func() (exp.Result, error) { return exp.RunTable2() }},
		{"table3", "sample service configuration file", func() (exp.Result, error) { return exp.RunTable3() }},
		{"table4", "syscall-level slow-down (clock cycles)", func() (exp.Result, error) { return exp.RunTable4() }},
		{"fig3", "attack isolation (honeypot vs web)", func() (exp.Result, error) { return exp.RunAttack() }},
		{"fig4", "per-node response time under weighted round-robin", func() (exp.Result, error) { return exp.RunFig4() }},
		{"fig5", "CPU shares under two schedulers", func() (exp.Result, error) { return exp.RunFig5() }},
		{"fig6", "application-level slow-down (3 deployments)", func() (exp.Result, error) { return exp.RunFig6() }},
		{"download", "image download time vs size (§4.3 in-text)", func() (exp.Result, error) { return exp.RunDownload() }},
		{"abl-inflation", "ablation: §3.2 slow-down inflation factor", func() (exp.Result, error) { return exp.RunAblationInflation() }},
		{"abl-strategy", "ablation: Spread vs Pack under host failures", func() (exp.Result, error) { return exp.RunAblationStrategy() }},
		{"abl-shaper", "ablation: shaper share vs cap semantics", func() (exp.Result, error) { return exp.RunAblationShaper() }},
		{"abl-ddos", "ablation: §3.5 DDoS inundation limitation", func() (exp.Result, error) { return exp.RunAblationDDoS() }},
		{"acct", "accounting: metered CPU shares vs scheduler proportions", func() (exp.Result, error) { return exp.RunAccounting() }},
		{"breakdown", "supplementary: per-stage response-time breakdown", func() (exp.Result, error) { return exp.RunBreakdown() }},
		{"sweep-inflation", "sweep: inflation factor 1.0..2.0", func() (exp.Result, error) { return exp.RunInflationSweep() }},
		{"chaos", "fault lifecycle: host crash, detection, self-healing recovery", func() (exp.Result, error) { return exp.RunChaos(p.seed, p.or(20*sim.Second)) }},
		{"failover", "control-plane HA: leader crash, journal replay, warm-standby takeover", func() (exp.Result, error) { return exp.RunFailover(p.seed, p.or(20*sim.Second)) }},
		{"flight", "flight recorder: routing hot-path overhead bare vs recording", func() (exp.Result, error) { return exp.RunFlightOverhead() }},
		{"reqtrace", "request tracing: routing hot-path overhead bare vs tail sampler attached", func() (exp.Result, error) { return exp.RunReqtraceOverhead() }},
		{"primescale", fmt.Sprintf("cooperative chunked priming: 1 → %d replicas, peer-sourced bytes, near-flat latency", p.replicas), func() (exp.Result, error) { return exp.RunPrimeScale(p.replicas, p.seed) }},
		{"autoscale", "closed-loop autoscaling: demand ramp, host crash mid-scale-up, no-flap trough", func() (exp.Result, error) { return exp.RunAutoscale(p.seed, p.or(60*sim.Second)) }},
	}
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the command: it parses args, runs the selected experiments (or
// the throughput benchmark) and returns the exit code: 0 when every
// shape check passes, 1 on a failed check or run error, 2 on bad usage.
func run(args []string) int {
	fs := flag.NewFlagSet("sodabench", flag.ContinueOnError)
	expID := fs.String("exp", "all", "experiment id to run, or 'all'")
	list := fs.Bool("list", false, "list experiment ids and exit")
	throughput := fs.Bool("throughput", false, "run the live proxy throughput benchmark instead of the simulated experiments")
	seed := fs.Uint64("seed", 1, "seed of chaos, failover, primescale and autoscale")
	duration := fs.Duration("duration", 0, "run length; 0 keeps each run's default: chaos and failover 20s virtual, autoscale 60s virtual, -throughput 5s wall")
	replicas := fs.Int("replicas", 32, "primescale: replica host count for the mass prime")
	out := fs.String("out", "", "write the selected experiment's (or -throughput's) JSON report to this file")
	backends := fs.Int("backends", 4, "throughput: number of live backends")
	conc := fs.Int("conc", 16, "throughput: concurrent clients")
	sloP99Ms := fs.Float64("slo-p99-ms", 0, "throughput: fail unless p99 latency is at or under this target (ms)")
	sloAvail := fs.Float64("slo-availability", 0, "throughput: fail unless routed fraction meets this target (e.g. 0.999)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p := params{seed: *seed, duration: *duration, replicas: *replicas}

	if *throughput {
		return runThroughputCmd(throughputConfig{
			backends:        *backends,
			conc:            *conc,
			duration:        p.or(5 * time.Second),
			out:             *out,
			sloP99Ms:        *sloP99Ms,
			sloAvailability: *sloAvail,
		})
	}

	if *list {
		for _, e := range experiments(p) {
			fmt.Printf("%-9s %s\n", e.id, e.what)
		}
		return 0
	}
	if *out != "" && *expID == "all" {
		fmt.Fprintln(os.Stderr, "-out writes one experiment's report; select it with -exp <id>")
		return 2
	}

	ran := 0
	failed := 0
	for _, e := range experiments(p) {
		if *expID != "all" && *expID != e.id {
			continue
		}
		ran++
		start := time.Now()
		res, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			failed++
			continue
		}
		text := res.Render()
		fmt.Printf("=== %s (%.2fs wall) ===\n%s\n", e.id, time.Since(start).Seconds(), text)
		if *out != "" {
			if err := writeReport(*out, res); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
				return 1
			}
		}
		if strings.Contains(text, "shape[FAIL]") {
			failed++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *expID)
		return 2
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed shape checks\n", failed)
		return 1
	}
	return 0
}

// writeReport writes v as indented JSON to path.
func writeReport(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
