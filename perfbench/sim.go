package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/appsvc"
	"repro/internal/hup"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/soda"
	"repro/internal/workload"
)

// simShape is one simulator workload: the paper's seattle + tacoma
// testbed hosting the <3, M> web content service, driven for a fixed
// virtual duration by either closed-loop clients or open-loop arrivals.
type simShape struct {
	// clients > 0 runs that many closed-loop clients with zero think time;
	// otherwise rate is the open-loop Poisson arrival rate per second.
	clients int
	rate    float64
	// warm is the virtual time the load runs before measurement starts.
	// A closed loop's clients join in batches spread over it: clients
	// that start together share the servers equally and so finish, and
	// start again, together, and one batch of all of them would keep the
	// load in synchronised waves for the whole run.
	warm sim.Duration
	// load is the measured virtual duration, in steps of slice: long
	// enough that one step takes a fraction of a millisecond or more, and
	// short enough that a repetition has over a hundred steps, so its
	// tail is at least the p90.
	load, slice sim.Duration
}

var (
	// simCrowd keeps about 2000 requests in the system at once; in steady
	// state they queue as flows on the fluid servers of the nodes' NICs,
	// the service's bottleneck, so every flow event costs O(flows).
	simCrowd = simShape{clients: 2000, warm: sim.Second, load: 2 * sim.Second, slice: 10 * sim.Millisecond}
	// simPaper is the Figures 4 and 6 regime: Poisson arrivals at about
	// half the service's capacity, so only a handful of flows are ever
	// concurrent.
	simPaper = simShape{rate: 850, warm: 5 * sim.Second, load: 60 * sim.Second, slice: 100 * sim.Millisecond}
)

const (
	// simTimeout abandons a request not answered within this virtual time;
	// an abandoned request counts as failed.
	simTimeout = 30 * sim.Second
	// simBatch is how many closed-loop clients join at once.
	simBatch = 100
	// simDrainLimit bounds the virtual time allowed for in-flight requests
	// to finish after the load stops.
	simDrainLimit = 2 * simTimeout
)

func runSimCrowd(cfg runConfig) (*report, error) { return runSim(simCrowd, cfg) }
func runSimPaper(cfg runConfig) (*report, error) { return runSim(simPaper, cfg) }

// simRep is one repetition: a fresh testbed, the load, and a drain.
type simRep struct {
	setup  time.Duration // wall time to build the testbed, prime the service and warm it
	wall   time.Duration // wall time of the load phase
	served int           // requests completed in the load phase
	steps  []float64     // wall ms per virtual slice of the load phase
	digest string

	issued, completed, errors, timeouts int
	vlatP50, vlatP99                    float64 // virtual response time, ms
	bytes, dropped                      int64
	events                              uint64
	routed, swDropped, retried          int

	// Measured only when traced.
	routeNs, routeCalls int64
	flowSum, flowMax    int
	flowSamples         int
	cpuUtil             float64
}

// inFlight is the count of requests neither answered nor abandoned.
func (r *simRep) inFlight() int { return r.issued - r.completed - r.errors - r.timeouts }

// buildPaperService builds the §4 testbed and creates the web content
// service with requirement <3, M>, which the Master spreads as a
// capacity-2 node on seattle and a capacity-1 node on tacoma.
func buildPaperService(seed uint64) (*hup.Testbed, *soda.Service, error) {
	tb, err := hup.New(hup.Config{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	img := hup.WebContentImage("webcontent", 8)
	if err := tb.Publish(img); err != nil {
		return nil, nil, err
	}
	if err := tb.Agent.RegisterASP("asp", "secret"); err != nil {
		return nil, nil, err
	}
	wd := hup.NewWebDeployment(tb, appsvc.DefaultWebParams(64))
	m := soda.DefaultM()
	m.DiskMB = 2048
	svc, err := tb.CreateService("secret", soda.ServiceSpec{
		Name:         "webcontent",
		ImageName:    img.Name,
		Repository:   hup.RepoIP,
		Requirement:  soda.Requirement{N: 3, M: m},
		GuestProfile: img.SystemServices,
		Behavior:     wd.Behavior(),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("create service: %w", err)
	}
	if len(svc.Nodes) != 2 {
		return nil, nil, fmt.Errorf("expected 2 nodes, got %d", len(svc.Nodes))
	}
	return tb, svc, nil
}

// timedTarget wraps the service switch's Route with a wall-clock timer.
// It changes nothing the simulation sees: the same call with the same
// arguments, and no kernel events.
type timedTarget struct {
	inner     workload.Target
	ns, calls *int64
}

func (t timedTarget) Route(clientIP simnet.IP, bytes int64, onDone func()) error {
	start := time.Now()
	err := t.inner.Route(clientIP, bytes, onDone)
	*t.ns += time.Since(start).Nanoseconds()
	*t.calls++
	return err
}

// runSimRep runs one repetition. A tracer adds the Route timer, samples
// the hosts' CPU flow counts between slices, and profiles the load phase;
// none of it alters the simulated work, which the digest comparison in
// runSim verifies.
func runSimRep(shape simShape, seed uint64, tr *tracer) (*simRep, error) {
	rep := &simRep{}
	traced := tr != nil
	runtime.GC() // start every repetition from the same heap
	t0 := time.Now()
	tb, svc, err := buildPaperService(seed)
	if err != nil {
		return nil, err
	}

	var target workload.Target = hup.SwitchTarget{Switch: svc.Switch}
	if traced {
		target = timedTarget{inner: target, ns: &rep.routeNs, calls: &rep.routeCalls}
	}
	gen := workload.NewGenerator(tb.K, target, tb.AddClient(), tb.RNG.Split())
	gen.Timeout = simTimeout

	if shape.clients > 0 {
		batches := shape.clients / simBatch
		for i := 0; i < batches; i++ {
			gen.RunClosedLoop(simBatch, 0)
			tb.K.RunFor(shape.warm / sim.Duration(batches))
		}
	} else {
		gen.RunOpenLoop(shape.rate)
		tb.K.RunFor(shape.warm)
	}
	rep.setup = time.Since(t0)
	start := tb.K.Now()
	end := start.Add(shape.load)
	events0 := tb.K.Dispatched()
	completed0 := gen.Completed
	bytes0, dropped0 := tb.Net.Transferred, tb.Net.Dropped
	var served0, capacity float64
	for _, h := range tb.Hosts {
		served0 += h.CPU().TotalServed
		capacity += h.CPU().Capacity()
	}

	rep.steps = make([]float64, 0, int(shape.load/shape.slice))
	if err := tr.begin(); err != nil {
		return nil, err
	}
	w0 := time.Now()
	for t := start.Add(shape.slice); t <= end; t = t.Add(shape.slice) {
		s := time.Now()
		tb.K.RunUntil(t)
		rep.steps = append(rep.steps, float64(time.Since(s).Nanoseconds())/1e6)
		if traced {
			flows := 0
			for _, h := range tb.Hosts {
				flows += h.CPU().ActiveFlows()
			}
			rep.flowSum += flows
			rep.flowSamples++
			if flows > rep.flowMax {
				rep.flowMax = flows
			}
		}
	}
	rep.wall = time.Since(w0)
	if err := tr.end(); err != nil {
		return nil, err
	}
	rep.events = tb.K.Dispatched() - events0
	rep.served = gen.Completed - completed0
	if traced {
		var served float64
		for _, h := range tb.Hosts {
			served += h.CPU().TotalServed
		}
		rep.cpuUtil = (served - served0) / (capacity * shape.load.Seconds())
	}

	gen.Stop()
	rep.issued, rep.completed, rep.errors, rep.timeouts = gen.Issued, gen.Completed, gen.Errors, gen.Timeouts
	for waited := sim.Duration(0); rep.inFlight() > 0 && waited < simDrainLimit; waited += 100 * sim.Millisecond {
		tb.K.RunFor(100 * sim.Millisecond)
		rep.issued, rep.completed, rep.errors, rep.timeouts = gen.Issued, gen.Completed, gen.Errors, gen.Timeouts
	}

	rep.vlatP50 = gen.LatencyQ.Quantile(0.5) * 1e3
	rep.vlatP99 = gen.LatencyQ.Quantile(0.99) * 1e3
	rep.bytes, rep.dropped = tb.Net.Transferred-bytes0, tb.Net.Dropped-dropped0
	rep.routed, rep.swDropped, rep.retried = svc.Switch.Routed(), svc.Switch.Dropped(), svc.Switch.Retried()

	h := sha256.New()
	fmt.Fprintf(h, "requests issued=%d completed=%d errors=%d timeouts=%d\n",
		rep.issued, rep.completed, rep.errors, rep.timeouts)
	fmt.Fprintf(h, "vlat p50=%v p90=%v p99=%v max=%v\n", gen.LatencyQ.Quantile(0.5),
		gen.LatencyQ.Quantile(0.9), gen.LatencyQ.Quantile(0.99), gen.LatencyQ.Quantile(1))
	fmt.Fprintf(h, "net transferred=%d dropped=%d\n", tb.Net.Transferred, tb.Net.Dropped)
	fmt.Fprintf(h, "kernel now=%d dispatched=%d\n", tb.K.Now(), tb.K.Dispatched())
	fmt.Fprintf(h, "switch routed=%d dropped=%d retried=%d\n", rep.routed, rep.swDropped, rep.retried)
	fmt.Fprintf(h, "state=%s\n", tb.Master.StateDigest())
	rep.digest = fmt.Sprintf("%x", h.Sum(nil))
	return rep, nil
}

// runSim repeats the workload on fresh testbeds until the budget is
// spent. The untraced run reports the end-to-end metrics, the traced run
// the per-layer ones. Every repetition uses the same seed, so all their
// digests, traced or not, must agree.
func runSim(shape simShape, cfg runConfig) (*report, error) {
	out := newReport()
	plain, traced, tr, err := repeat(cfg, func(tr *tracer) (*simRep, error) {
		return runSimRep(shape, cfg.seed, tr)
	})
	if err != nil {
		return nil, err
	}
	all := append(append([]*simRep(nil), plain...), traced...)
	first := all[0]
	same, conserved := true, true
	for _, r := range all {
		same = same && r.digest == first.digest
		conserved = conserved && r.inFlight() == 0
		out.attempted += int64(r.issued)
		out.failed += int64(r.errors + r.timeouts)
	}
	out.check(digestCheck(cfg), same, "%d repetitions, digest %.16s", len(all), first.digest)
	out.check("request conservation", conserved,
		"issued %d = completed %d + errors %d + timeouts %d", first.issued, first.completed, first.errors, first.timeouts)

	reps := plain
	if cfg.trace {
		reps = traced
	}
	var setups, rates []float64
	var steps [][]float64
	for _, r := range reps {
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, shape.load.Seconds()/r.wall.Seconds())
		steps = append(steps, r.steps)
	}
	rate := simRate(shape, reps)
	st := combine(steps)
	fmt.Fprintf(cfg.log, "  %d repetitions of %v virtual after %v warm-up; rates %.3g\n",
		len(reps), shape.load, shape.warm, rates)
	fmt.Fprintf(cfg.log, "  steps: %d slices of %v, tail is the median of the repetitions' p%g\n", st.N, shape.slice, st.Level*100)

	if !cfg.trace {
		out.values["setup_s"] = median(setups)
		out.values["work_per_s"] = rate
		out.setTiming(st)
		out.name("sim_vsec_per_s", rate, "1/s", "over all %d repetitions", len(reps))
		return out, nil
	}

	v := out.values
	var ops int64
	var routeNs, routeCalls int64
	var flowSum, flowMax, flowSamples int
	var util []float64
	var wall time.Duration
	var events uint64
	for _, r := range reps {
		ops += int64(r.served)
		routeNs += r.routeNs
		routeCalls += r.routeCalls
		flowSum += r.flowSum
		flowSamples += r.flowSamples
		flowMax = max(flowMax, r.flowMax)
		util = append(util, r.cpuUtil)
		wall += r.wall
		events += r.events
	}
	out.setTrace(tr, ops)
	v["trace.overhead"] = simRate(shape, plain) / rate
	v["sim.events"] = float64(first.events)
	v["sim.events_per_s"] = float64(events) / wall.Seconds()
	v["sim.fluid.cpu_flows_mean"] = float64(flowSum) / float64(max(flowSamples, 1))
	v["sim.fluid.cpu_flows_max"] = float64(flowMax)
	v["simnet.bytes"] = float64(first.bytes)
	v["simnet.dropped"] = float64(first.dropped)
	v["hostos.cpu_util"] = median(util)
	v["svcswitch.route_ns_mean"] = float64(routeNs) / float64(max(routeCalls, 1))
	v["svcswitch.routed"] = float64(first.routed)
	v["svcswitch.dropped"] = float64(first.swDropped)
	v["svcswitch.retried"] = float64(first.retried)
	v["workload.issued"] = float64(first.issued)
	v["workload.completed"] = float64(first.completed)
	v["workload.timeouts"] = float64(first.timeouts)
	v["workload.errors"] = float64(first.errors)
	v["workload.vlat_p50_ms"] = first.vlatP50
	v["workload.vlat_p99_ms"] = first.vlatP99
	return out, nil
}

// simRate is the virtual seconds simulated per host second over all of
// reps together, not a median of repetitions: the host's speed drifts,
// and a run's rate then moves smoothly with the share of it spent slow
// instead of jumping between a slow and a fast value.
func simRate(shape simShape, reps []*simRep) float64 {
	var wall time.Duration
	for _, r := range reps {
		wall += r.wall
	}
	return float64(len(reps)) * shape.load.Seconds() / wall.Seconds()
}
