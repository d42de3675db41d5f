package accounting

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/flight"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/svcswitch"
	"repro/internal/telemetry"
)

// Options parameterises an Accountant.
type Options struct {
	// Clock supplies the accounting timestamps: the kernel's virtual
	// clock under simulation, wall time live. Required.
	Clock func() sim.Time
	// Registry receives usage gauges and burn-rate gauges; nil disables
	// exposition.
	Registry *telemetry.Registry
	// Tracer, when set, records a span per violation so the event
	// carries the trace of the window that breached.
	Tracer *telemetry.Tracer
	// EvalPeriod is the SLO evaluation tick (default 10 s).
	EvalPeriod sim.Duration
	// Fast and Slow are the burn-rate window pairs; zero values take the
	// SRE defaults (5m/1h at 14.4x, 1h/6h at 6x).
	Fast, Slow WindowPair
	// MinRequests guards burn rates computed over too few requests
	// (default 30).
	MinRequests int64
}

// SamplePeriod is the metering tick the owner drives Sample at.
const SamplePeriod = sim.Second

func (o Options) withDefaults() Options {
	if o.EvalPeriod <= 0 {
		o.EvalPeriod = 10 * sim.Second
	}
	if o.Fast == (WindowPair{}) {
		o.Fast = DefaultFastWindow
	}
	if o.Slow == (WindowPair{}) {
		o.Slow = DefaultSlowWindow
	}
	if o.MinRequests == 0 {
		o.MinRequests = 30
	}
	return o
}

// WatchConfig describes one service to meter and (optionally) evaluate.
type WatchConfig struct {
	Service string
	// SLO enables evaluation when any objective is set.
	SLO svcswitch.SLO
	// Nodes are the service's virtual service nodes.
	Nodes []NodeRef
	// Net supplies per-IP byte odometers; nil disables network metering.
	Net *simnet.Network
	// Reserved reports the service's current reservation (re-read every
	// sample, so resizes show up immediately).
	Reserved func() ReservedResources
	// Latency is the switch's cumulative latency histogram (nil when
	// uninstrumented: the latency objective is then unevaluable).
	Latency *telemetry.Histogram
	// Routed and Dropped read the switch's cumulative request counters.
	Routed, Dropped func() int64
}

// Accountant owns every service's meter and evaluator. All methods are
// safe for concurrent use: ticks run on the simulation/daemon goroutine
// while HTTP handlers read reports.
type Accountant struct {
	opt Options

	// flog carries watch/unwatch diagnostics into the flight recorder;
	// nil (no-op) until SetLogger. Violations are not logged here: the
	// OnViolation callbacks receive them, with their span's trace.
	flog *flight.Logger

	mu       sync.Mutex
	services map[string]*svcEntry
	onViol   []func(Violation)
}

type svcEntry struct {
	meter *Meter
	eval  *Evaluator // nil when no SLO
}

// New returns an Accountant.
func New(opt Options) *Accountant {
	if opt.Clock == nil {
		panic("accounting: Options.Clock is required")
	}
	return &Accountant{opt: opt.withDefaults(), services: make(map[string]*svcEntry)}
}

// EvalPeriod returns the evaluation tick the owner should drive
// Evaluate at.
func (a *Accountant) EvalPeriod() sim.Duration { return a.opt.EvalPeriod }

// SetLogger routes the accountant's structured diagnostics into the
// flight recorder. Nil restores the no-op default.
func (a *Accountant) SetLogger(l *flight.Logger) { a.flog = l }

// OnViolation registers a callback invoked (outside the lock) for every
// violation fired.
func (a *Accountant) OnViolation(fn func(Violation)) {
	if fn == nil {
		return
	}
	a.mu.Lock()
	a.onViol = append(a.onViol, fn)
	a.mu.Unlock()
}

// Watch starts (or updates) metering for a service. Re-watching an
// already-watched service — the resize path — updates the node set, SLO,
// and reservation closure while preserving accumulated usage.
func (a *Accountant) Watch(cfg WatchConfig) {
	if cfg.Service == "" {
		panic("accounting: Watch without a service name")
	}
	now := a.opt.Clock()
	a.mu.Lock()
	defer a.mu.Unlock()
	e, ok := a.services[cfg.Service]
	if !ok {
		e = &svcEntry{
			meter: NewMeter(cfg.Service, cfg.Net, cfg.Reserved, cfg.Nodes, a.opt.Registry, now),
		}
		a.services[cfg.Service] = e
		a.flog.Debug("metering started",
			telemetry.L("service", cfg.Service),
			telemetry.L("nodes", fmt.Sprint(len(cfg.Nodes))))
	} else {
		e.meter.reserved = cfg.Reserved
		e.meter.setNodes(cfg.Nodes)
	}
	slo := cfg.SLO.Normalize()
	switch {
	case !slo.Enabled():
		e.eval = nil
	case e.eval == nil || e.eval.slo != slo:
		e.eval = newEvaluator(cfg.Service, slo, e.meter, cfg.Latency,
			cfg.Routed, cfg.Dropped, a.opt.Fast, a.opt.Slow, a.opt.MinRequests,
			a.opt.Registry, now)
	}
}

// Unwatch stops metering a service, returning its final cumulative
// usage for settlement. Exported gauges are zeroed so torn-down
// services stop showing live values.
func (a *Accountant) Unwatch(service string) (Usage, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e, ok := a.services[service]
	if !ok {
		return Usage{}, false
	}
	// Take a final sample so the bill covers up to the teardown instant.
	e.meter.Sample(a.opt.Clock())
	total := e.meter.Totals()
	e.meter.zeroGauges()
	if e.eval != nil {
		e.eval.fastG.Set(0)
		e.eval.slowG.Set(0)
	}
	delete(a.services, service)
	a.flog.Debug("metering settled", telemetry.L("service", service))
	return total, true
}

// Sample runs one metering tick over every watched service.
func (a *Accountant) Sample() {
	now := a.opt.Clock()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.services {
		e.meter.Sample(now)
	}
}

// Evaluate runs one SLO evaluation tick over every watched service,
// firing violation callbacks (and tracer spans) for services that just
// transitioned into breach.
func (a *Accountant) Evaluate() {
	now := a.opt.Clock()
	a.mu.Lock()
	var fired []Violation
	names := make([]string, 0, len(a.services))
	for name := range a.services {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic violation order
	for _, name := range names {
		e := a.services[name]
		if e.eval == nil {
			continue
		}
		if v := e.eval.Eval(now); v != nil {
			fired = append(fired, *v)
		}
	}
	callbacks := a.onViol
	a.mu.Unlock()

	for _, v := range fired {
		// The violation's span links the breach to its trace: the window
		// bounds and burn numbers ride as annotations.
		sp := a.opt.Tracer.StartRoot("slo.violation",
			telemetry.L("service", v.Service),
			telemetry.L("window", v.Window),
			telemetry.L("dimension", v.Dimension))
		sp.Annotate("burn_rate", fmt.Sprintf("%.2f", v.BurnRate))
		sp.Annotate("detail", v.Detail)
		sp.EndSpan()
		v.Trace = sp.TraceID()
		for _, fn := range callbacks {
			fn(v)
		}
	}
}

// LoadSignals is the compact per-service view the autoscaler reads every
// control tick: recent delivered CPU against the un-inflated
// reservation, plus the SLO evaluator's burn state. It is a subset of
// the full Usage report, cheap enough to gather per tick.
type LoadSignals struct {
	// RecentMHz is the meter's most recent delivered-CPU sample.
	RecentMHz float64
	// ReservedMHz is the service's current un-inflated CPU reservation
	// (M.CPUMHz × total capacity).
	ReservedMHz float64
	// FastBurn and SlowBurn are the evaluator's burn rates; Violating is
	// its latched breach state. All zero when the service has no SLO.
	FastBurn, SlowBurn float64
	Violating          bool
}

// Signals returns the named service's load signals for this instant.
// The second result is false when the service is not watched.
func (a *Accountant) Signals(service string) (LoadSignals, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e, ok := a.services[service]
	if !ok {
		return LoadSignals{}, false
	}
	ls := LoadSignals{RecentMHz: e.meter.RecentMHz()}
	if e.meter.reserved != nil {
		ls.ReservedMHz = e.meter.reserved().CPUMHz
	}
	if e.eval != nil {
		ls.FastBurn, ls.SlowBurn = e.eval.BurnRates()
		ls.Violating = e.eval.latched
	}
	return ls, true
}

// Totals returns a service's cumulative usage.
func (a *Accountant) Totals(service string) (Usage, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e, ok := a.services[service]
	if !ok {
		return Usage{}, false
	}
	return e.meter.Totals(), true
}

// Services returns the watched service names, sorted.
func (a *Accountant) Services() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.services))
	for n := range a.services {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// BucketView is one usage bucket in a report.
type BucketView struct {
	StartSec      float64 `json:"start_sec"`
	CPUMHzSeconds float64 `json:"cpu_mhz_seconds"`
	MemMBSeconds  float64 `json:"mem_mb_seconds"`
	DiskMBSeconds float64 `json:"disk_mb_seconds"`
	NetBytes      int64   `json:"net_bytes"`
}

// SLOView is the evaluated-SLO section of a service report.
type SLOView struct {
	LatencyTargetMs float64 `json:"latency_target_ms,omitempty"`
	LatencyQuantile float64 `json:"latency_quantile,omitempty"`
	Availability    float64 `json:"availability,omitempty"`
	MinCPUMHz       float64 `json:"min_cpu_mhz,omitempty"`
	FastBurn        float64 `json:"fast_burn"`
	SlowBurn        float64 `json:"slow_burn"`
	Violations      int     `json:"violations"`
	Violating       bool    `json:"violating"`
	LastViolation   string  `json:"last_violation,omitempty"`
}

// ServiceUsage is one service's full usage report: billing totals in
// every unit, the step-down windowed series, and the SLO state.
type ServiceUsage struct {
	Service       string       `json:"service"`
	CPUMHzSeconds float64      `json:"cpu_mhz_seconds"`
	CPUMHz        float64      `json:"cpu_mhz_recent"`
	MemoryGBHours float64      `json:"memory_gb_hours"`
	DiskGBHours   float64      `json:"disk_gb_hours"`
	NetworkGB     float64      `json:"network_gb"`
	NetBytes      int64        `json:"net_bytes"`
	Fine          []BucketView `json:"fine,omitempty"`
	Mid           []BucketView `json:"mid,omitempty"`
	Coarse        []BucketView `json:"coarse,omitempty"`
	SLO           *SLOView     `json:"slo,omitempty"`
}

func bucketViews(r *Ring) []BucketView {
	bs := r.Buckets()
	out := make([]BucketView, len(bs))
	for i, b := range bs {
		out[i] = BucketView{
			StartSec:      b.Start.Seconds(),
			CPUMHzSeconds: b.CPUMHzSeconds,
			MemMBSeconds:  b.MemMBSeconds,
			DiskMBSeconds: b.DiskMBSeconds,
			NetBytes:      b.NetBytes,
		}
	}
	return out
}

// Usage builds the report for one service.
func (a *Accountant) Usage(service string) (ServiceUsage, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e, ok := a.services[service]
	if !ok {
		return ServiceUsage{}, false
	}
	return a.reportLocked(service, e), true
}

// Report builds reports for every watched service, sorted by name.
func (a *Accountant) Report() []ServiceUsage {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.services))
	for n := range a.services {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]ServiceUsage, 0, len(names))
	for _, n := range names {
		out = append(out, a.reportLocked(n, a.services[n]))
	}
	return out
}

func (a *Accountant) reportLocked(name string, e *svcEntry) ServiceUsage {
	t := e.meter.Totals()
	su := ServiceUsage{
		Service:       name,
		CPUMHzSeconds: t.CPUMHzSeconds,
		CPUMHz:        e.meter.RecentMHz(),
		MemoryGBHours: t.MemoryGBHours(),
		DiskGBHours:   t.DiskGBHours(),
		NetworkGB:     t.NetworkGB(),
		NetBytes:      t.NetBytes,
		Fine:          bucketViews(e.meter.Series().Fine),
		Mid:           bucketViews(e.meter.Series().Mid),
		Coarse:        bucketViews(e.meter.Series().Coarse),
	}
	if e.eval != nil {
		fast, slow := e.eval.BurnRates()
		sv := &SLOView{
			LatencyTargetMs: float64(e.eval.slo.LatencyTarget.Milliseconds()),
			LatencyQuantile: e.eval.slo.LatencyQuantile,
			Availability:    e.eval.slo.Availability,
			MinCPUMHz:       e.eval.slo.MinCPUMHz,
			FastBurn:        fast,
			SlowBurn:        slow,
			Violations:      e.eval.violations,
			Violating:       e.eval.latched,
		}
		if e.eval.last != nil {
			sv.LastViolation = e.eval.last.Detail
		}
		su.SLO = sv
	}
	return su
}
