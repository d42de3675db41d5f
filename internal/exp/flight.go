package exp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/cycles"
	"repro/internal/flight"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/svcswitch"
	"repro/internal/telemetry"
)

// FlightOverheadResult measures what the flight recorder costs the
// routing hot path: the switch is driven through the same request
// sequence with the recorder absent and attached, and the paths must
// agree within 5%. By design the data plane never logs per request —
// flight exposure there is one sequence increment plus histogram
// exemplar stamps — so the overhead should be noise. JSON-tagged for
// BENCH_flight.json in CI.
type FlightOverheadResult struct {
	Ops    int `json:"ops"`
	Trials int `json:"trials"`
	// BareNs / FlightNs are ns per routed request, minimum over trials
	// (minimum, not mean: scheduler noise only ever adds time).
	BareNs   float64 `json:"bare_ns_per_op"`
	FlightNs float64 `json:"flight_ns_per_op"`
	// OverheadPct is (flight-bare)/bare in percent; negative means the
	// flight run was faster (noise floor).
	OverheadPct float64 `json:"overhead_pct"`
	// RingRecords is the flight run's final ring population — proof the
	// recorder was live, capturing heartbeats, while routing ran.
	RingRecords uint64 `json:"ring_records"`
	// LogNs is the cost of one steady-state structured log call
	// (Logger.Info with two labels into the ring), measured separately;
	// informational, no gate.
	LogNs float64 `json:"log_ns_per_record"`
}

// flightBenchNode satisfies svcswitch.Node with zero-cost execution so
// the benchmark measures the switch, not a simulated CPU.
type flightBenchNode struct {
	ip simnet.IP
	k  *sim.Kernel
}

func (n *flightBenchNode) IP() simnet.IP { return n.ip }
func (n *flightBenchNode) ExecCPU(c cycles.Cycles, onDone func()) bool {
	n.k.Immediately(onDone)
	return true
}
func (n *flightBenchNode) SyscallCost(s cycles.Syscall) cycles.Cycles { return cycles.HostCost(s) }
func (n *flightBenchNode) Alive() bool                                { return true }

// flightBenchSwitch builds the 3-backend switch fixture the svcswitch
// benchmarks use, instrumented with a live registry.
func flightBenchSwitch() (*sim.Kernel, *svcswitch.Switch, *telemetry.Registry, error) {
	k := sim.NewKernel()
	net := simnet.New(k, 10*sim.Microsecond)
	host, err := net.Attach("host", 1000)
	if err != nil {
		return nil, nil, nil, err
	}
	client, err := net.Attach("client", 1000)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := client.AddIP("10.0.1.1"); err != nil {
		return nil, nil, nil, err
	}
	if err := host.AddIP("10.0.0.0"); err != nil {
		return nil, nil, nil, err
	}
	ents := []svcswitch.BackendEntry{
		{IP: "10.0.0.1", Port: 8080, Capacity: 2},
		{IP: "10.0.0.2", Port: 8080, Capacity: 1},
		{IP: "10.0.0.3", Port: 8080, Capacity: 1},
	}
	for _, e := range ents {
		if err := host.AddIP(e.IP); err != nil {
			return nil, nil, nil, err
		}
	}
	cfg := svcswitch.NewConfigFile("svc")
	if err := cfg.SetEntries(ents); err != nil {
		return nil, nil, nil, err
	}
	sw := svcswitch.New(net, &flightBenchNode{ip: "10.0.0.0", k: k}, cfg)
	for _, e := range ents {
		sw.Bind(e, func(client simnet.IP, onDone func()) bool {
			k.Immediately(onDone)
			return true
		})
	}
	reg := telemetry.NewRegistry()
	sw.Instrument(reg)
	return k, sw, reg, nil
}

// flightRouteN drives n requests to completion back-to-back (one flow
// at a time, like BenchmarkRouting, so both variants do identical
// simulated work).
func flightRouteN(k *sim.Kernel, sw *svcswitch.Switch, n int) error {
	completed := 0
	var routeErr error
	var issue func()
	issue = func() {
		completed++
		if completed >= n {
			return
		}
		if err := sw.Route(svcswitch.Request{ClientIP: "10.0.1.1", Bytes: 512, OnDone: issue}); err != nil {
			routeErr = err
		}
	}
	if err := sw.Route(svcswitch.Request{ClientIP: "10.0.1.1", Bytes: 512, OnDone: issue}); err != nil {
		return err
	}
	k.Run()
	if routeErr != nil {
		return routeErr
	}
	if completed != n {
		return fmt.Errorf("flight: completed %d/%d", completed, n)
	}
	return nil
}

// overheadTrials runs trials rounds of one bare and one instrumented
// trial, interleaved so process warm-up (allocator, code cache) biases
// neither variant. It returns each side's minimum ns/op (minimum, not
// mean: scheduler noise only ever adds time) and the largest liveness
// count an instrumented trial reported.
func overheadTrials(trials int, trial func(instrumented bool) (float64, int64, error)) (bareNs, instNs float64, live int64, err error) {
	bareNs, instNs = math.Inf(1), math.Inf(1)
	for t := 0; t < trials; t++ {
		for _, on := range []bool{false, true} {
			ns, n, err := trial(on)
			if err != nil {
				return 0, 0, 0, err
			}
			if on {
				instNs, live = min(instNs, ns), max(live, n)
			} else {
				bareNs = min(bareNs, ns)
			}
		}
	}
	return bareNs, instNs, live, nil
}

// flightTrial measures one timed pass of ops routed requests, with the
// flight recorder attached or not. Returns ns/op and the ring
// population after the run.
func flightTrial(withFlight bool, ops int) (float64, int64, error) {
	k, sw, reg, err := flightBenchSwitch()
	if err != nil {
		return 0, 0, err
	}
	var rec *flight.Recorder
	if withFlight {
		rec = flight.NewRecorder(flight.Options{
			Clock:   func() time.Duration { return k.Now().Duration() },
			Metrics: reg.Snapshot,
		})
		log := flight.NewLogger(rec)
		sw.SetLogger(log.Component("switch", telemetry.L("service", "svc")))
	}
	// Warm up allocator pools and the route cache outside the window.
	if err := flightRouteN(k, sw, ops/10+1); err != nil {
		return 0, 0, err
	}
	// A live sodad snapshots metrics about once a virtual second; here
	// the recorder heartbeats between chunks (a standing kernel timer
	// would keep k.Run from ever draining). Chunking is identical in
	// both variants, so the comparison stays apples-to-apples.
	const chunks = 10
	per := ops / chunks
	var elapsed time.Duration
	for c := 0; c < chunks; c++ {
		n := per
		if c == chunks-1 {
			n = ops - per*(chunks-1)
		}
		start := time.Now()
		if err := flightRouteN(k, sw, n); err != nil {
			return 0, 0, err
		}
		elapsed += time.Since(start)
		rec.CaptureMetrics()
	}
	return float64(elapsed.Nanoseconds()) / float64(ops), int64(rec.Seq()), nil
}

// RunFlightOverhead measures the routing hot path bare vs
// flight-enabled, minimum of 5 trials of 100k requests each.
func RunFlightOverhead() (*FlightOverheadResult, error) {
	const ops, trials = 100_000, 5
	res := &FlightOverheadResult{Ops: ops, Trials: trials}
	bare, inst, ring, err := overheadTrials(trials, func(on bool) (float64, int64, error) { return flightTrial(on, ops) })
	if err != nil {
		return nil, err
	}
	res.BareNs, res.FlightNs, res.RingRecords = bare, inst, uint64(ring)
	res.OverheadPct = (res.FlightNs - res.BareNs) / res.BareNs * 100

	// Steady-state cost of one structured log record, for context.
	rec := flight.NewRecorder(flight.Options{Clock: func() time.Duration { return 0 }})
	logger := flight.NewLogger(rec).Component("bench", telemetry.L("service", "svc"))
	const logOps = 1_000_000
	start := time.Now()
	for i := 0; i < logOps; i++ {
		logger.Info("routing", telemetry.L("backend", "10.0.0.1:80"), telemetry.L("op", "fwd"))
	}
	res.LogNs = float64(time.Since(start).Nanoseconds()) / logOps
	return res, nil
}

// Title implements Result.
func (*FlightOverheadResult) Title() string {
	return "Flight recorder overhead: routing hot path bare vs black-box recording enabled"
}

// Render implements Result.
func (r *FlightOverheadResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title() + "\n\n")
	fmt.Fprintf(&b, "  %d routed requests × %d trials (minimum taken)\n", r.Ops, r.Trials)
	fmt.Fprintf(&b, "  bare:   %8.1f ns/op\n", r.BareNs)
	fmt.Fprintf(&b, "  flight: %8.1f ns/op  (%+.1f%%, ring %d record(s))\n", r.FlightNs, r.OverheadPct, r.RingRecords)
	fmt.Fprintf(&b, "  one structured log record: %.0f ns\n\n", r.LogNs)
	b.WriteString(shapeCheck("flight recorder adds ≤ 5% to the routing hot path", r.OverheadPct <= 5) + "\n")
	b.WriteString(shapeCheck("recorder live during the measured run", r.RingRecords > 0) + "\n")
	return b.String()
}
