package accounting

import (
	"math"
	"testing"
	"time"

	"repro/internal/hostos"
	"repro/internal/hostos/sched"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/svcswitch"
	"repro/internal/telemetry"
)

func TestRingAlignmentAndRotation(t *testing.T) {
	r := NewRing(sim.Second, 3)
	r.Add(sim.Time(1500*sim.Millisecond), Usage{CPUMHzSeconds: 1})
	r.Add(sim.Time(1900*sim.Millisecond), Usage{CPUMHzSeconds: 2}) // same bucket
	r.Add(sim.Time(2100*sim.Millisecond), Usage{CPUMHzSeconds: 4})
	bs := r.Buckets()
	if len(bs) != 2 {
		t.Fatalf("buckets = %d, want 2", len(bs))
	}
	if bs[0].Start != sim.Time(sim.Second) || bs[0].CPUMHzSeconds != 3 {
		t.Fatalf("bucket 0 = %+v", bs[0])
	}
	if bs[1].Start != sim.Time(2*sim.Second) || bs[1].CPUMHzSeconds != 4 {
		t.Fatalf("bucket 1 = %+v", bs[1])
	}
	// Rotate past capacity: oldest evicted.
	r.Add(sim.Time(3*sim.Second), Usage{CPUMHzSeconds: 8})
	r.Add(sim.Time(10*sim.Second), Usage{CPUMHzSeconds: 16})
	bs = r.Buckets()
	if len(bs) != 3 || bs[0].CPUMHzSeconds != 4 || bs[2].CPUMHzSeconds != 16 {
		t.Fatalf("after rotation: %+v", bs)
	}
	if got := r.Total(); got.CPUMHzSeconds != 28 {
		t.Fatalf("total = %+v", got)
	}
	if got := r.Since(sim.Time(3 * sim.Second)); got.CPUMHzSeconds != 24 {
		t.Fatalf("since 3s = %+v", got)
	}
}

func TestRingLateSampleFoldsForward(t *testing.T) {
	r := NewRing(sim.Second, 4)
	r.Add(sim.Time(5*sim.Second), Usage{NetBytes: 10})
	r.Add(sim.Time(4*sim.Second), Usage{NetBytes: 7}) // late: folds into newest
	bs := r.Buckets()
	if len(bs) != 1 || bs[0].NetBytes != 17 {
		t.Fatalf("buckets = %+v", bs)
	}
}

func TestSeriesStepDownResolutions(t *testing.T) {
	s := NewSeries()
	for i := 0; i < 200; i++ {
		s.Add(sim.Time(i)*sim.Time(sim.Second), Usage{CPUMHzSeconds: 1})
	}
	if got := s.Fine.Len(); got != FineCap {
		t.Fatalf("fine len = %d, want %d", got, FineCap)
	}
	// 200 seconds of 1-unit samples: mid ring has 20 ten-second buckets,
	// coarse ring 4 minute buckets (0,1,2,3 minutes), none evicted.
	if got := s.Mid.Len(); got != 20 {
		t.Fatalf("mid len = %d, want 20", got)
	}
	if got := s.Coarse.Len(); got != 4 {
		t.Fatalf("coarse len = %d, want 4", got)
	}
	// No usage lost at coarse resolution.
	if got := s.Coarse.Total().CPUMHzSeconds; got != 200 {
		t.Fatalf("coarse total = %v, want 200", got)
	}
}

// meterRig is a one-host, one-process fixture for meter tests.
func meterRig(t *testing.T) (*sim.Kernel, *hostos.Host, *simnet.Network) {
	t.Helper()
	k := sim.NewKernel()
	h, err := hostos.New(k, hostos.Seattle(), sched.NewProportional())
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(k, 100*sim.Microsecond)
	return k, h, net
}

func TestMeterCPUMatchesSchedulerAccounting(t *testing.T) {
	k, h, net := meterRig(t)
	h.Spawn("svc", 7).Spin()
	reg := telemetry.NewRegistry()
	m := NewMeter("web", net, func() ReservedResources {
		return ReservedResources{CPUMHz: 512, MemoryMB: 256, DiskMB: 1024}
	}, []NodeRef{{Name: "web-0", UID: 7, Host: h}}, reg, k.Now())

	k.Every(sim.Second, func() { m.Sample(k.Now()) })
	k.RunUntil(sim.Time(30 * sim.Second))

	want := h.CPUCyclesFor(7) / 1e6
	got := m.Totals().CPUMHzSeconds
	if want == 0 {
		t.Fatal("scheduler accounted no cycles — fixture broken")
	}
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("metered %.1f MHz-s vs scheduler %.1f MHz-s (>2%% apart)", got, want)
	}
	// The series reconciles with the totals.
	if st := m.Series().Coarse.Total().CPUMHzSeconds; math.Abs(st-got) > 1e-6 {
		t.Fatalf("coarse series total %.3f != totals %.3f", st, got)
	}
	// Reservation integral: 256 MB held for 30 s.
	if mem := m.Totals().MemMBSeconds; math.Abs(mem-256*30) > 256 {
		t.Fatalf("mem integral = %v, want ≈%v", mem, 256*30)
	}
	// Exposition.
	if g := reg.Snapshot().Gauge("soda_usage_cpu_mhz_seconds", telemetry.L("service", "web")); math.Abs(g-got) > 1e-6 {
		t.Fatalf("gauge = %v, want %v", g, got)
	}
}

func TestMeterNetworkBytes(t *testing.T) {
	k, _, net := meterRig(t)
	nic := net.MustAttach("hostA", 100)
	if err := nic.AddIP("10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	if err := nic.AddIP("10.0.0.2"); err != nil {
		t.Fatal(err)
	}
	m := NewMeter("web", net, nil, []NodeRef{{Name: "web-0", IP: "10.0.0.1"}}, nil, k.Now())
	if err := net.Transfer("10.0.0.1", "10.0.0.2", 5000, nil); err != nil {
		t.Fatal(err)
	}
	if err := net.Transfer("10.0.0.2", "10.0.0.1", 900, nil); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(2 * sim.Second))
	m.Sample(k.Now())
	// Only bytes sourced from the node's own address are charged.
	if got := m.Totals().NetBytes; got != 5000 {
		t.Fatalf("net bytes = %d, want 5000", got)
	}
}

func TestMeterSetNodesPreservesTotals(t *testing.T) {
	k, h, net := meterRig(t)
	h.Spawn("a", 7).Spin()
	m := NewMeter("web", net, nil, []NodeRef{{Name: "web-0", UID: 7, Host: h}}, nil, k.Now())
	k.RunUntil(sim.Time(5 * sim.Second))
	m.Sample(k.Now())
	before := m.Totals().CPUMHzSeconds
	if before == 0 {
		t.Fatal("no usage accumulated")
	}
	// Resize: add a node, keep the old one. Totals must not reset and the
	// surviving node must not be double-charged.
	h.Spawn("b", 8).Spin()
	m.setNodes([]NodeRef{{Name: "web-0", UID: 7, Host: h}, {Name: "web-1", UID: 8, Host: h}})
	k.RunUntil(sim.Time(10 * sim.Second))
	m.Sample(k.Now())
	after := m.Totals().CPUMHzSeconds
	want := (h.CPUCyclesFor(7) + h.CPUCyclesFor(8)) / 1e6
	if math.Abs(after-want)/want > 0.02 {
		t.Fatalf("after resize metered %.1f vs scheduler %.1f", after, want)
	}
	if after <= before {
		t.Fatalf("totals went backwards: %v -> %v", before, after)
	}
}

// evalRig builds an evaluator over a synthetic histogram and counters
// with short windows for fast tests.
type evalRig struct {
	hist    *telemetry.Histogram
	routed  int64
	dropped int64
	eval    *Evaluator
}

func newEvalRig(t *testing.T, slo svcswitch.SLO) *evalRig {
	t.Helper()
	reg := telemetry.NewRegistry()
	rig := &evalRig{hist: reg.Histogram("lat", nil)}
	rig.eval = newEvaluator("web", slo, nil, rig.hist,
		func() int64 { return rig.routed },
		func() int64 { return rig.dropped },
		WindowPair{Short: 10 * time.Second, Long: 60 * time.Second, Threshold: 10},
		WindowPair{Short: 60 * time.Second, Long: 6 * time.Minute, Threshold: 4},
		20, reg, 0)
	return rig
}

// serve records n requests of the given latency.
func (r *evalRig) serve(n int, lat float64) {
	for i := 0; i < n; i++ {
		r.hist.Observe(lat)
		r.routed++
	}
}

func TestEvaluatorLatencyBurnFiresOnceAndRearms(t *testing.T) {
	rig := newEvalRig(t, svcswitch.SLO{LatencyTarget: 100 * time.Millisecond, LatencyQuantile: 0.99})
	now := sim.Time(0)
	tick := func() *Violation {
		now = now.Add(2 * sim.Second)
		return rig.eval.Eval(now)
	}
	// Healthy traffic: well under target, no violation.
	for i := 0; i < 10; i++ {
		rig.serve(50, 0.01)
		if v := tick(); v != nil {
			t.Fatalf("false positive on healthy traffic: %+v", v)
		}
	}
	// Overload: every request blows the target. Burn = 1/0.01 = 100x.
	var fired *Violation
	for i := 0; i < 10; i++ {
		rig.serve(50, 5.0)
		if v := tick(); v != nil {
			if fired != nil {
				t.Fatalf("second violation while latched: %+v", v)
			}
			fired = v
		}
	}
	if fired == nil {
		t.Fatal("sustained overload never fired")
	}
	if fired.Dimension != "latency" {
		t.Fatalf("violation = %+v", fired)
	}
	if fired.Window != "fast" && fired.Window != "slow" {
		t.Fatalf("violation window = %q", fired.Window)
	}
	if rig.eval.Violations() != 1 || !rig.eval.Violating() {
		t.Fatalf("violations = %d latched = %v", rig.eval.Violations(), rig.eval.Violating())
	}
	// Recovery: healthy traffic long enough to flush the short windows
	// re-arms the latch; a fresh overload fires again.
	for i := 0; i < 40; i++ {
		rig.serve(50, 0.01)
		if v := tick(); v != nil {
			t.Fatalf("violation during recovery: %+v", v)
		}
	}
	if rig.eval.Violating() {
		t.Fatal("latch never re-armed")
	}
	for i := 0; i < 35; i++ {
		rig.serve(50, 5.0)
		tick()
	}
	if got := rig.eval.Violations(); got != 2 {
		t.Fatalf("violations after second overload = %d, want 2", got)
	}
}

func TestEvaluatorMinRequestsGuardsSparseTraffic(t *testing.T) {
	rig := newEvalRig(t, svcswitch.SLO{LatencyTarget: 100 * time.Millisecond, LatencyQuantile: 0.99})
	now := sim.Time(0)
	// A trickle of slow requests: terrible burn rate, too few requests
	// to be actionable.
	for i := 0; i < 30; i++ {
		rig.serve(1, 5.0)
		now = now.Add(10 * sim.Second)
		if v := rig.eval.Eval(now); v != nil {
			t.Fatalf("fired on %d requests/window: %+v", 1, v)
		}
	}
}

func TestEvaluatorAvailabilityBurn(t *testing.T) {
	rig := newEvalRig(t, svcswitch.SLO{Availability: 0.99})
	now := sim.Time(0)
	var fired *Violation
	for i := 0; i < 10; i++ {
		// Half of all requests dropped: burn 50x budget.
		rig.serve(25, 0.01)
		rig.dropped += 25
		now = now.Add(2 * sim.Second)
		if v := rig.eval.Eval(now); v != nil && fired == nil {
			fired = v
		}
	}
	if fired == nil || fired.Dimension != "availability" {
		t.Fatalf("violation = %+v", fired)
	}
}

func TestAccountantWatchEvaluateUnwatch(t *testing.T) {
	k, h, net := meterRig(t)
	h.Spawn("svc", 7).Spin()
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(func() sim.Duration { return k.Now().Duration() })
	acct := New(Options{
		Clock:       k.Now,
		Registry:    reg,
		Tracer:      tracer,
		Fast:        WindowPair{Short: 5 * time.Second, Long: 30 * time.Second, Threshold: 10},
		Slow:        WindowPair{Short: 30 * time.Second, Long: 3 * time.Minute, Threshold: 4},
		EvalPeriod:  sim.Second,
		MinRequests: 10,
	})
	var got []Violation
	acct.OnViolation(func(v Violation) { got = append(got, v) })

	hist := reg.Histogram("weblat", nil)
	var routed int64
	acct.Watch(WatchConfig{
		Service: "web",
		SLO:     svcswitch.SLO{LatencyTarget: 100 * time.Millisecond},
		Nodes:   []NodeRef{{Name: "web-0", UID: 7, Host: h}},
		Net:     net,
		Latency: hist,
		Routed:  func() int64 { return routed },
		Dropped: func() int64 { return 0 },
	})
	k.Every(SamplePeriod, acct.Sample)
	k.Every(acct.EvalPeriod(), acct.Evaluate)
	k.Every(sim.Second, func() {
		for i := 0; i < 20; i++ {
			hist.Observe(3.0) // every request busts the 100ms target
			routed++
		}
	})
	k.RunUntil(sim.Time(60 * sim.Second))

	if len(got) != 1 {
		t.Fatalf("violations = %d (%+v), want exactly 1 while latched", len(got), got)
	}
	if got[0].Service != "web" || got[0].Dimension != "latency" {
		t.Fatalf("violation = %+v", got[0])
	}
	// Burn-rate gauge exported.
	if g := reg.Snapshot().Gauge("soda_slo_burn_rate", telemetry.L("service", "web"), telemetry.L("window", "fast")); g < 10 {
		t.Fatalf("fast burn gauge = %v, want >= 10", g)
	}
	// Usage report carries SLO state.
	su, ok := acct.Usage("web")
	if !ok || su.SLO == nil || su.SLO.Violations != 1 || !su.SLO.Violating {
		t.Fatalf("usage report = %+v", su)
	}
	if su.CPUMHzSeconds == 0 {
		t.Fatal("no CPU metered")
	}

	// Unwatch returns final totals and zeroes gauges.
	total, ok := acct.Unwatch("web")
	if !ok || total.CPUMHzSeconds < su.CPUMHzSeconds {
		t.Fatalf("unwatch totals = %+v", total)
	}
	if g := reg.Snapshot().Gauge("soda_usage_cpu_mhz_seconds", telemetry.L("service", "web")); g != 0 {
		t.Fatalf("gauge after unwatch = %v", g)
	}
	if _, ok := acct.Totals("web"); ok {
		t.Fatal("service still watched after Unwatch")
	}
}
