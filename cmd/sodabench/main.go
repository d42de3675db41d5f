// Command sodabench regenerates every table and figure of the paper's
// evaluation (HPDC 2003, §4.3 and §5) and prints them in the paper's
// row/series format with shape checks against the published results.
//
// Usage:
//
//	sodabench                 # run everything
//	sodabench -exp table2     # one experiment
//	sodabench -list           # list experiment ids
//
// Experiment ids: table1 table2 table3 table4 fig3 fig4 fig5 fig6
// download.
//
// Beyond the simulated experiments, -throughput runs a live contended
// benchmark of the realswitch data plane: real loopback HTTP backends, a
// real reverse proxy, concurrent keep-alive clients:
//
//	sodabench -throughput -backends 4 -conc 16 -duration 5s -out BENCH_pr2.json
//
// -chaos runs the fault-lifecycle smoke on the simulated testbed: a host
// is crash-stopped mid-run and the run fails unless the failure detector
// confirms the death, the switch ejects the dead backends, a replacement
// node is primed, throughput recovers to ≥90% of pre-fault, and the same
// seed reproduces the identical event sequence. -duration is virtual
// time (the run itself takes well under a second of wall time):
//
//	sodabench -chaos -seed 1 -duration 20s -out BENCH_chaos.json
//
// -failover runs the control-plane HA smoke: the leader Master is
// crash-stopped mid-run and the run fails unless journal replay
// reconstructs the pre-crash state byte-for-byte, the warm standby takes
// over within 5 virtual seconds, every daemon resynchronizes under the
// new epoch, zero data-plane requests are dropped, and the same seed
// reproduces the identical takeover timeline:
//
//	sodabench -failover -seed 1 -duration 20s -out BENCH_failover.json
//
// -flight measures what the black-box flight recorder costs the routing
// hot path (gate: ≤5%), emitting BENCH_flight.json:
//
//	sodabench -flight -out BENCH_flight.json
//
// -reqtrace measures what the tail-sampled per-request trace layer costs
// the routing hot path when attached but not retaining (gate: ≤2%),
// emitting BENCH_trace.json:
//
//	sodabench -reqtrace -out BENCH_trace.json
//
// -primescale measures flash-crowd image priming at 1 → N replicas with
// cooperative content-addressed chunk distribution against the
// whole-image baseline, gating near-flat latency, ≥50% peer-sourced
// bytes, exactly-once origin streaming, and same-seed determinism:
//
//	sodabench -primescale -replicas 32 -seed 1 -out BENCH_prime.json
//
// -autoscale runs the closed-loop scaling smoke: a seeded demand ramp
// saturates a small reservation and the run fails unless the controller
// scales up on the utilization signal before the SLO evaluator latches,
// rides out a host crash injected mid-scale-up, returns the service to
// its floor without flapping once the ramp ends, reconstructs its state
// from journal replay byte-for-byte, and reproduces the identical
// timeline under the same seed. -duration is virtual time (use 60s):
//
//	sodabench -autoscale -seed 1 -duration 60s -out BENCH_autoscale.json
package main

import (
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

// experiments is the table behind -exp; chaos runs under seed, as
// -chaos does.
func experiments(seed uint64) []experiment {
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
		{"chaos", "fault lifecycle: host crash, detection, self-healing recovery", func() (exp.Result, error) { return exp.RunChaosWith(seed, 20*sim.Second) }},
		{"failover", "control-plane HA: leader crash, journal replay, warm-standby takeover", func() (exp.Result, error) { return exp.RunFailover() }},
		{"flight", "flight recorder: routing hot-path overhead bare vs recording", func() (exp.Result, error) { return exp.RunFlightOverhead() }},
		{"reqtrace", "request tracing: routing hot-path overhead bare vs tail sampler attached", func() (exp.Result, error) { return exp.RunReqtraceOverhead() }},
		{"primescale", "cooperative chunked priming: 1 → 32 replicas, peer-sourced bytes, near-flat latency", func() (exp.Result, error) { return exp.RunPrimeScale(32, 1) }},
		{"autoscale", "closed-loop autoscaling: demand ramp, host crash mid-scale-up, no-flap trough", func() (exp.Result, error) { return exp.RunAutoscale() }},
	}
}

func main() {
	expFlag := flag.String("exp", "all", "experiment id to run, or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	throughput := flag.Bool("throughput", false, "run the live proxy throughput benchmark instead of simulated experiments")
	chaosFlag := flag.Bool("chaos", false, "run the fault-lifecycle smoke: crash a host mid-run, assert detection, recovery, and determinism")
	failoverFlag := flag.Bool("failover", false, "run the control-plane HA smoke: crash the leader Master mid-run, assert replay fidelity, takeover MTTR, and zero dropped requests")
	flightFlag := flag.Bool("flight", false, "run the flight-recorder overhead benchmark: routing hot path bare vs recording enabled")
	reqtraceFlag := flag.Bool("reqtrace", false, "run the request-trace overhead benchmark: routing hot path bare vs tail sampler attached (unsampled)")
	primeFlag := flag.Bool("primescale", false, "run the priming-at-scale smoke: chunked cooperative mass prime vs whole-image baseline")
	autoscaleFlag := flag.Bool("autoscale", false, "run the closed-loop scaling smoke: demand ramp, host crash mid-scale-up, no-flap trough, journal replay fidelity")
	replicas := flag.Int("replicas", 32, "primescale: replica host count for the mass prime")
	flightOps := flag.Int("flight-ops", 100000, "flight: routed requests per trial")
	flightTrials := flag.Int("flight-trials", 5, "flight: trials (minimum ns/op taken)")
	seed := flag.Uint64("seed", 1, "seed of -chaos and -exp chaos (fault schedule), -failover, -autoscale and -primescale")
	backends := flag.Int("backends", 4, "throughput: number of live backends")
	conc := flag.Int("conc", 16, "throughput: concurrent clients")
	duration := flag.Duration("duration", 5*time.Second, "throughput: wall-clock measurement window; chaos: virtual run length (use 20s)")
	idlePerHost := flag.Int("idle-per-host", 0, "throughput: proxy transport MaxIdleConnsPerHost (0 = tuned default)")
	out := flag.String("out", "", "throughput: write the JSON report to this file")
	sloP99Ms := flag.Float64("slo-p99-ms", 0, "throughput: fail unless p99 latency is at or under this target (ms)")
	sloAvail := flag.Float64("slo-availability", 0, "throughput: fail unless routed fraction meets this target (e.g. 0.999)")
	flag.Parse()

	if *flightFlag {
		os.Exit(runFlightCmd(flightConfig{
			ops:    *flightOps,
			trials: *flightTrials,
			out:    *out,
		}))
	}

	if *reqtraceFlag {
		os.Exit(runReqtraceCmd(reqtraceConfig{
			ops:    *flightOps,
			trials: *flightTrials,
			out:    *out,
		}))
	}

	if *primeFlag {
		os.Exit(runPrimeScaleCmd(primeScaleConfig{
			replicas: *replicas,
			seed:     *seed,
			out:      *out,
		}))
	}

	if *autoscaleFlag {
		os.Exit(runAutoscaleCmd(autoscaleConfig{
			seed:     *seed,
			duration: *duration,
			out:      *out,
		}))
	}

	if *failoverFlag {
		os.Exit(runFailoverCmd(failoverConfig{
			seed:     *seed,
			duration: *duration,
			out:      *out,
		}))
	}

	if *chaosFlag {
		os.Exit(runChaosCmd(chaosConfig{
			seed:     *seed,
			duration: *duration,
			out:      *out,
		}))
	}

	if *throughput {
		os.Exit(runThroughputCmd(throughputConfig{
			backends:        *backends,
			conc:            *conc,
			duration:        *duration,
			idlePerHost:     *idlePerHost,
			out:             *out,
			sloP99Ms:        *sloP99Ms,
			sloAvailability: *sloAvail,
		}))
	}

	if *list {
		for _, e := range experiments(*seed) {
			fmt.Printf("%-9s %s\n", e.id, e.what)
		}
		return
	}

	ran := 0
	failed := 0
	for _, e := range experiments(*seed) {
		if *expFlag != "all" && *expFlag != e.id {
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
		out := res.Render()
		fmt.Printf("=== %s (%.2fs wall) ===\n%s\n", e.id, time.Since(start).Seconds(), out)
		if strings.Contains(out, "shape[FAIL]") {
			failed++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *expFlag)
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed shape checks\n", failed)
		os.Exit(1)
	}
}
