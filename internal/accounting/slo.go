package accounting

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/svcswitch"
	"repro/internal/telemetry"
)

// WindowPair is one burn-rate alerting rule: the condition fires when
// the error-budget burn rate exceeds Threshold over both the Short and
// the Long window. The short window makes the alert reset quickly once
// the problem stops; the long window keeps one bad minute from paging.
type WindowPair struct {
	Short, Long sim.Duration
	Threshold   float64
}

// The standard SRE multi-window pairs: the fast pair catches an outage
// burning ~2% of a 30-day budget in an hour (14.4× budget rate), the
// slow pair a sustained simmer (6×).
var (
	DefaultFastWindow = WindowPair{Short: 5 * time.Minute, Long: time.Hour, Threshold: 14.4}
	DefaultSlowWindow = WindowPair{Short: time.Hour, Long: 6 * time.Hour, Threshold: 6}
)

// Violation describes one SLO breach.
type Violation struct {
	Service string `json:"service"`
	// Window names the pair that fired ("fast" or "slow").
	Window string `json:"window"`
	// Dimension is the objective that burned: "latency", "availability",
	// or "cpu".
	Dimension string `json:"dimension"`
	// BurnRate is the budget burn multiple over the pair's short window.
	BurnRate float64  `json:"burn_rate"`
	At       sim.Time `json:"at_ns"`
	Detail   string   `json:"detail"`
	// Trace is the ID of the violation's "slo.violation" span, set when
	// the accountant fires it; 0 without a tracer.
	Trace uint64 `json:"trace,omitempty"`
}

// evalSample is one evaluation tick's worth of request-level deltas.
type evalSample struct {
	t       sim.Time
	total   int64 // routed + dropped in the interval
	routed  int64 // completed requests observed by the histogram
	dropped int64
	slow    float64 // requests over the latency target (interpolated)
}

// Evaluator judges one service against its SLO. Each Eval tick diffs
// the switch's cumulative latency histogram and drop counters into an
// interval sample, then computes error-budget burn rates over the
// configured window pairs. A latch gives exactly-one-violation
// semantics: the evaluator fires on the transition into violation and
// re-arms only after the fast short-window burn drops below 1× (the
// service is repaying budget again).
type Evaluator struct {
	service string
	slo     svcswitch.SLO
	meter   *Meter

	latency         *telemetry.Histogram
	routed, dropped func() int64

	fast, slow WindowPair
	// minRequests guards partial windows: burn rates computed from fewer
	// requests than this are not actionable and never fire.
	minRequests int64

	samples     []evalSample
	prevLat     telemetry.HistogramSnapshot
	prevRouted  int64
	prevDropped int64

	// starvedFor accumulates contiguous time the service was starved
	// below its CPU floor while its host was saturated.
	starvedFor sim.Duration
	lastEval   sim.Time

	latched    bool
	violations int
	last       *Violation

	fastG, slowG *telemetry.Gauge
}

// newEvaluator wires an evaluator; slo must be enabled and normalized.
func newEvaluator(service string, slo svcswitch.SLO, meter *Meter, latency *telemetry.Histogram, routed, dropped func() int64, fast, slow WindowPair, minRequests int64, reg *telemetry.Registry, at sim.Time) *Evaluator {
	e := &Evaluator{
		service:     service,
		slo:         slo.Normalize(),
		meter:       meter,
		latency:     latency,
		routed:      routed,
		dropped:     dropped,
		fast:        fast,
		slow:        slow,
		minRequests: minRequests,
		prevLat:     latency.Snapshot(),
		lastEval:    at,
	}
	if e.routed != nil {
		e.prevRouted = e.routed()
	}
	if e.dropped != nil {
		e.prevDropped = e.dropped()
	}
	svc := telemetry.L("service", service)
	e.fastG = reg.Gauge("soda_slo_burn_rate", svc, telemetry.L("window", "fast"))
	e.slowG = reg.Gauge("soda_slo_burn_rate", svc, telemetry.L("window", "slow"))
	return e
}

// SLO returns the objective under evaluation.
func (e *Evaluator) SLO() svcswitch.SLO { return e.slo }

// Violations returns how many violations have fired.
func (e *Evaluator) Violations() int { return e.violations }

// Violating reports whether the evaluator is currently latched in
// violation.
func (e *Evaluator) Violating() bool { return e.latched }

// BurnRates returns the current short-window burn of the fast and slow
// pairs.
func (e *Evaluator) BurnRates() (fast, slow float64) {
	return e.fastG.Value(), e.slowG.Value()
}

// Eval ingests one evaluation interval and returns a violation if the
// service just transitioned into breach, nil otherwise.
func (e *Evaluator) Eval(now sim.Time) *Violation {
	interval := now.Sub(e.lastEval)
	if interval <= 0 {
		return nil
	}
	e.lastEval = now

	// Interval deltas from the cumulative instruments.
	var s evalSample
	s.t = now
	cur := e.latency.Snapshot()
	win := cur.Sub(e.prevLat)
	e.prevLat = cur
	s.routed = win.Count
	if e.slo.LatencyTarget > 0 {
		s.slow = win.CountAbove(e.slo.LatencyTarget.Seconds())
	}
	if e.dropped != nil {
		d := e.dropped()
		s.dropped = d - e.prevDropped
		e.prevDropped = d
	}
	if e.routed != nil {
		r := e.routed()
		s.total = (r - e.prevRouted) + s.dropped
		e.prevRouted = r
	} else {
		s.total = s.routed + s.dropped
	}
	e.samples = append(e.samples, s)
	e.evict(now)

	// CPU starvation: delivery below the floor only counts against the
	// platform when the host was actually contended — an idle service
	// drawing little CPU is not a breach.
	if e.slo.MinCPUMHz > 0 && e.meter != nil {
		if e.meter.HostBusy() > 0.95 && e.meter.RecentMHz() < e.slo.MinCPUMHz {
			e.starvedFor += interval
		} else {
			e.starvedFor = 0
		}
	}

	fastBurn, fastDim, fastReqs := e.burnOver(now, e.fast.Short)
	fastLong, _, _ := e.burnOver(now, e.fast.Long)
	slowBurn, slowDim, slowReqs := e.burnOver(now, e.slow.Short)
	slowLong, _, _ := e.burnOver(now, e.slow.Long)
	e.fastG.Set(fastBurn)
	e.slowG.Set(slowBurn)

	var v *Violation
	switch {
	case e.starvedFor >= e.fast.Short:
		v = &Violation{
			Service: e.service, Window: "fast", Dimension: "cpu",
			BurnRate: e.slo.MinCPUMHz / maxf(e.meter.RecentMHz(), 1), At: now,
			Detail: fmt.Sprintf("cpu delivery %.0f MHz below floor %.0f MHz for %v on a saturated host",
				e.meter.RecentMHz(), e.slo.MinCPUMHz, e.starvedFor),
		}
	case fastBurn >= e.fast.Threshold && fastLong >= e.fast.Threshold && fastReqs >= e.minRequests:
		v = &Violation{
			Service: e.service, Window: "fast", Dimension: fastDim, BurnRate: fastBurn, At: now,
			Detail: fmt.Sprintf("%s budget burning %.1fx over %v/%v (threshold %.1fx, %d requests)",
				fastDim, fastBurn, e.fast.Short, e.fast.Long, e.fast.Threshold, fastReqs),
		}
	case slowBurn >= e.slow.Threshold && slowLong >= e.slow.Threshold && slowReqs >= e.minRequests:
		v = &Violation{
			Service: e.service, Window: "slow", Dimension: slowDim, BurnRate: slowBurn, At: now,
			Detail: fmt.Sprintf("%s budget burning %.1fx over %v/%v (threshold %.1fx, %d requests)",
				slowDim, slowBurn, e.slow.Short, e.slow.Long, e.slow.Threshold, slowReqs),
		}
	}

	if v == nil {
		// Re-arm once the fast short window shows the budget recovering.
		if e.latched && fastBurn < 1 && e.starvedFor == 0 {
			e.latched = false
		}
		return nil
	}
	if e.latched {
		return nil // still inside the same breach
	}
	e.latched = true
	e.violations++
	e.last = v
	return v
}

// evict drops samples older than the longest window.
func (e *Evaluator) evict(now sim.Time) {
	horizon := now.Add(-e.slow.Long - e.slow.Long/8)
	i := 0
	for i < len(e.samples) && e.samples[i].t < horizon {
		i++
	}
	if i > 0 {
		e.samples = append(e.samples[:0], e.samples[i:]...)
	}
}

// burnOver computes the worst error-budget burn rate over the trailing
// window, returning the burn, which dimension produced it, and how many
// requests informed it. Budget burn is (bad fraction)/(1 − target): a
// service exactly at its target burns 1× — spending budget exactly as
// provisioned.
func (e *Evaluator) burnOver(now sim.Time, w sim.Duration) (burn float64, dim string, reqs int64) {
	from := now.Add(-w)
	var total, routed, dropped int64
	var slow float64
	for i := len(e.samples) - 1; i >= 0; i-- {
		s := e.samples[i]
		if s.t <= from {
			break
		}
		total += s.total
		routed += s.routed
		dropped += s.dropped
		slow += s.slow
	}
	reqs = total
	if e.slo.LatencyTarget > 0 && routed > 0 {
		budget := 1 - e.slo.LatencyQuantile
		if b := (slow / float64(routed)) / budget; b > burn {
			burn, dim = b, "latency"
		}
	}
	if e.slo.Availability > 0 && total > 0 {
		budget := 1 - e.slo.Availability
		if b := (float64(dropped) / float64(total)) / budget; b > burn {
			burn, dim = b, "availability"
		}
	}
	return burn, dim, reqs
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
