package svcswitch

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/flight"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// HealthConfig tunes passive backend health tracking: consecutive-error
// ejection with half-open re-admission. Both data planes take it. The
// zero value disables it, keeping routing identical to a health-unaware
// switch.
type HealthConfig struct {
	// EjectAfter is the consecutive-failure count that ejects a backend
	// from the rotation; 0 disables health tracking.
	EjectAfter int
	// ProbeAfter is how long an ejected backend sits out before one
	// half-open probe request is admitted.
	ProbeAfter sim.Duration
}

// Counters are the switch counters both data planes report, under the
// same instrument names, so dashboards read identically over simulated
// and live traffic. They always count; Instrument moves them into a
// registry.
type Counters struct {
	Routed, Dropped, Retried *telemetry.Counter
	Ejected, Readmitted      *telemetry.Counter
}

// cell is one backend's forwarding statistics and passive health, kept
// in atomics so concurrent live requests update it without a lock. Cells
// are keyed by address in the Router and outlive route-table rebuilds,
// so resizing never forgets a failure streak.
type cell struct {
	addr      string
	active    atomic.Int64
	forwarded atomic.Int64
	fails     atomic.Int64 // consecutive failures while in rotation
	ejected   atomic.Bool  // out of the rotation
	probing   atomic.Bool  // a half-open probe is in flight
	reopenAt  atomic.Int64 // when the next probe is due, ns on the caller's clock
}

func (c *cell) stats() Stats {
	return Stats{Forwarded: int(c.forwarded.Load()), Active: int(c.active.Load())}
}

// eligible reports whether the backend may take a request at now: it is
// in rotation, or it is ejected, due its half-open probe, and no probe is
// already in flight. It claims nothing.
func (c *cell) eligible(now int64) bool {
	return !c.ejected.Load() || (!c.probing.Load() && now >= c.reopenAt.Load())
}

// admit is eligible plus the claim: an ejected backend due its probe is
// admitted only by winning the race for its single probe slot.
func (c *cell) admit(now int64) bool {
	if !c.ejected.Load() {
		return true
	}
	return now >= c.reopenAt.Load() && c.probing.CompareAndSwap(false, true)
}

// Tried is one request's retry state: the backends it has attempted.
// Indexes below 64 live in an inline word, so routes of up to 64
// backends retry without allocating; larger routes spill into more.
type Tried struct {
	lo   uint64
	more []uint64
	n    int
}

// Len returns how many backends were attempted.
func (t *Tried) Len() int { return t.n }

// Reset forgets every attempt, keeping spilled words for reuse.
func (t *Tried) Reset() {
	t.lo, t.n = 0, 0
	clear(t.more)
}

func (t *Tried) has(i int) bool {
	if i < 64 {
		return t.lo&(1<<uint(i)) != 0
	}
	w := i/64 - 1
	return w < len(t.more) && t.more[w]&(1<<uint(i%64)) != 0
}

func (t *Tried) add(i int) {
	t.n++
	if i < 64 {
		t.lo |= 1 << uint(i)
		return
	}
	w := i/64 - 1
	for len(t.more) <= w {
		t.more = append(t.more, 0)
	}
	t.more[w] |= 1 << uint(i%64)
}

// schedule is one component's precomputed rotation and its cursor. It
// lives as long as a config version, so table rebuilds for bind, health
// or instrument changes continue the rotation where it stood.
type schedule struct {
	order  []int32 // nil for a custom policy, which decides under the router mutex
	cursor atomic.Uint64
}

// maxScheduleSlots bounds a precomputed rotation's length.
const maxScheduleSlots = 4096

// wrrCycle memoizes one cycle of the WeightedRoundRobin policy over the
// GCD-reduced capacities. Smooth WRR returns to its initial state after
// exactly sum(weights) picks, so walking the cycle with a cursor
// reproduces the policy's pick sequence. Reduced capacities summing past
// maxScheduleSlots are first scaled down to fit, each backend keeping at
// least one slot, so every built-in pick still walks a rotation; for n
// backends that moves each one's traffic share by less than
// (n+1)/(maxScheduleSlots-n).
func wrrCycle(entries []BackendEntry) []int32 {
	g, total := 0, 0
	for _, e := range entries {
		a, b := g, e.Capacity
		for b != 0 {
			a, b = b, a%b
		}
		g = a
	}
	reduced := make([]BackendEntry, len(entries))
	for i, e := range entries {
		reduced[i].Capacity = e.Capacity / g
		total += reduced[i].Capacity
	}
	if total > maxScheduleSlots {
		sum := total
		total = 0
		for i := range reduced {
			reduced[i].Capacity = max(1, int(float64(reduced[i].Capacity)*maxScheduleSlots/float64(sum)))
			total += reduced[i].Capacity
		}
	}
	var p WeightedRoundRobin
	order := make([]int32, total)
	for i := range order {
		idx, _ := p.Pick(reduced, nil)
		order[i] = int32(idx)
	}
	return order
}

// Route is one component's slice of a route table: parallel arrays of
// everything the forwarding path needs, indexed by backend. Routes are
// immutable once published.
type Route[T any] struct {
	Entries []BackendEntry
	Addrs   []string
	Targets []T
	Hists   []*telemetry.Histogram // per-backend latency; nil uninstrumented
	Latency *telemetry.Histogram   // the service's latency; nil uninstrumented

	cells      []*cell
	sched      *schedule
	ejectAfter int
	probeNs    int64
}

// table is an immutable snapshot of every component's route, published
// RCU-style and rebuilt when the config version or gen moves.
type table[T any] struct {
	version int
	gen     int64
	def     *Route[T] // the "" component
	routes  map[string]*Route[T]
}

// Router is the routing core both data planes share: per-component route
// tables, the weighted-round-robin rotation, passive health ejection with
// half-open probes, the tried-set retry walk, and the switch counters.
// It is clock-agnostic — callers pass timestamps as int64 nanoseconds,
// virtual for the simulated Switch and wall-clock for the live proxy —
// and safe for concurrent use. T is the plane's per-backend forwarding
// target.
//
// Built-in policies pick lock-free: one atomic cursor increment into a
// precomputed rotation, skipping tried and ejected backends. Custom
// policies keep the full Policy contract and run under the router mutex
// on the eligible subset.
type Router[T any] struct {
	Counters

	config      *ConfigFile
	byComponent bool
	target      func(addr string) T

	tab  atomic.Pointer[table[T]]
	gen  atomic.Int64 // bumped by every non-config change a table captures
	flog atomic.Pointer[flight.Logger]

	// mu guards table rebuilds, the state below, and custom-policy picks.
	mu         sync.Mutex
	policy     Policy
	health     HealthConfig
	cells      map[string]*cell
	schedVer   int
	scheds     map[string]*schedule // per component, for schedVer
	reg        *telemetry.Registry
	latency    *telemetry.Histogram
	backendLat map[string]*telemetry.Histogram
	sub        []BackendEntry // custom-policy scratch
	subStats   []Stats
	subIdx     []int
}

// NewRouter returns a router over config with the default
// weighted-round-robin policy and uninstrumented counters. byComponent
// routes each component over its own backends (the partitionable-services
// extension); otherwise one route spans every entry. target resolves a
// backend address to the plane's forwarding target whenever a table is
// built; it runs under the router mutex.
func NewRouter[T any](config *ConfigFile, byComponent bool, target func(addr string) T) *Router[T] {
	r := &Router[T]{
		config:      config,
		byComponent: byComponent,
		target:      target,
		policy:      NewWeightedRoundRobin(),
		cells:       make(map[string]*cell),
	}
	r.Instrument(nil)
	return r
}

// Instrument moves the counters into reg and connects the latency
// histograms, labeled by service. Counts gathered before carry over, so
// the accessors never regress. A nil registry keeps the counters working
// but disables histogram collection.
func (r *Router[T]) Instrument(reg *telemetry.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	svc := telemetry.L("service", r.config.ServiceName)
	carry := func(name string, old *telemetry.Counter) *telemetry.Counter {
		c := reg.Counter(name, svc)
		c.Add(old.Value())
		return c
	}
	r.Counters = Counters{
		Routed:     carry("soda_switch_routed_total", r.Routed),
		Dropped:    carry("soda_switch_dropped_total", r.Dropped),
		Retried:    carry("soda_switch_retries_total", r.Retried),
		Ejected:    carry("soda_switch_ejected_total", r.Ejected),
		Readmitted: carry("soda_switch_readmitted_total", r.Readmitted),
	}
	r.reg = reg
	r.latency = reg.Histogram("soda_switch_latency_seconds", nil, svc)
	r.backendLat = make(map[string]*telemetry.Histogram)
	r.gen.Add(1) // published routes hold stale histograms
}

// LatencyHistogram returns the end-to-end latency histogram, nil when
// uninstrumented.
func (r *Router[T]) LatencyHistogram() *telemetry.Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.latency
}

// SetLogger routes backend-health transitions (ejection, re-admission)
// into the flight recorder; nil restores the no-op default. Per-request
// traffic is never logged.
func (r *Router[T]) SetLogger(l *flight.Logger) { r.flog.Store(l) }

// Logger returns the flight logger, nil (a no-op logger) by default.
func (r *Router[T]) Logger() *flight.Logger { return r.flog.Load() }

// Policy returns the active switching policy.
func (r *Router[T]) Policy() Policy {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.policy
}

// SetPolicy installs a service-specific policy (the ASP's replacement
// hook, §3.4) and restarts the rotation.
func (r *Router[T]) SetPolicy(p Policy) {
	if p == nil {
		panic("svcswitch: nil policy")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.policy = p
	p.Reset()
	r.scheds = nil
	r.gen.Add(1)
}

// SetHealth configures passive health tracking. A zero EjectAfter
// disables it and returns every backend to the rotation.
func (r *Router[T]) SetHealth(cfg HealthConfig) {
	if cfg.EjectAfter < 0 || cfg.ProbeAfter < 0 {
		panic("svcswitch: negative health threshold")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.health = cfg
	if cfg.EjectAfter == 0 {
		for _, c := range r.cells {
			c.fails.Store(0)
			c.ejected.Store(false)
			c.probing.Store(false)
		}
	}
	r.gen.Add(1)
}

// Health returns the active health configuration.
func (r *Router[T]) Health() HealthConfig {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.health
}

// BackendEjected reports whether passive health currently holds the
// backend address out of the rotation.
func (r *Router[T]) BackendEjected(addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.cells[addr]
	return c != nil && c.ejected.Load()
}

// StatsFor returns the forwarding statistics for a backend address.
func (r *Router[T]) StatsFor(addr string) Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.cells[addr]; c != nil {
		return c.stats()
	}
	return Stats{}
}

// Invalidate makes the next lookup rebuild the table, re-resolving every
// backend's target.
func (r *Router[T]) Invalidate() { r.gen.Add(1) }

// Forget drops a backend's statistics, health and latency histogram
// (tear-down, resizing), so repeated resizing cannot grow them without
// bound, and invalidates the table.
func (r *Router[T]) Forget(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.cells, addr)
	delete(r.backendLat, addr)
	r.gen.Add(1)
}

// Route returns component's route in the current table, rebuilding the
// table first if the config version or a captured setting moved. Nil
// means no backend serves the component. The common case is three
// atomic loads.
func (r *Router[T]) Route(component string) *Route[T] {
	t := r.tab.Load()
	if t == nil || t.version != r.config.Version() || t.gen != r.gen.Load() {
		t = r.rebuild()
	}
	if component == "" {
		return t.def
	}
	return t.routes[component]
}

// rebuild publishes a fresh table from the current config snapshot,
// double-checking under the mutex so concurrent noticers rebuild once.
func (r *Router[T]) rebuild() *table[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	version, entries := r.config.Snapshot()
	gen := r.gen.Load()
	if t := r.tab.Load(); t != nil && t.version == version && t.gen == gen {
		return t
	}
	if r.scheds == nil || version != r.schedVer {
		r.scheds = make(map[string]*schedule)
		r.schedVer = version
		r.policy.Reset()
	}
	t := &table[T]{version: version, gen: gen, routes: make(map[string]*Route[T])}
	for _, e := range entries {
		comp := e.Component
		if !r.byComponent {
			comp = ""
		}
		rt := t.routes[comp]
		if rt == nil {
			rt = &Route[T]{Latency: r.latency, ejectAfter: r.health.EjectAfter,
				probeNs: int64(r.health.ProbeAfter)}
			t.routes[comp] = rt
		}
		addr := e.Addr()
		c := r.cells[addr]
		if c == nil {
			c = &cell{addr: addr}
			r.cells[addr] = c
		}
		rt.Entries = append(rt.Entries, e)
		rt.Addrs = append(rt.Addrs, addr)
		rt.Targets = append(rt.Targets, r.target(addr))
		rt.Hists = append(rt.Hists, r.backendHist(addr))
		rt.cells = append(rt.cells, c)
	}
	for comp, rt := range t.routes {
		s := r.scheds[comp]
		if s == nil {
			s = &schedule{}
			switch r.policy.(type) {
			case *WeightedRoundRobin:
				s.order = wrrCycle(rt.Entries)
			case *RoundRobin:
				s.order = make([]int32, len(rt.Entries))
				for i := range s.order {
					s.order[i] = int32(i)
				}
			}
			r.scheds[comp] = s
		}
		rt.sched = s
	}
	t.def = t.routes[""]
	r.tab.Store(t)
	return t
}

// backendHist returns the per-backend latency histogram under r.mu, or
// nil when uninstrumented.
func (r *Router[T]) backendHist(addr string) *telemetry.Histogram {
	if r.reg == nil {
		return nil
	}
	h, ok := r.backendLat[addr]
	if !ok {
		h = r.reg.Histogram("soda_switch_backend_latency_seconds", nil,
			telemetry.L("service", r.config.ServiceName), telemetry.L("backend", addr))
		r.backendLat[addr] = h
	}
	return h
}

// Pick chooses the next backend of rt for a request that has already
// attempted the backends in tried, records it there, and counts the pick
// as a retry if it is not the request's first. Tried and ejected
// backends are skipped; an ejected backend due its half-open probe is
// admitted, and only the chosen one's probe slot is claimed. When every
// untried backend is ejected the pick fails open and ignores health. It
// returns -1 when no backend remains or a custom policy misbehaves.
func (r *Router[T]) Pick(rt *Route[T], tried *Tried, now int64) int {
	idx := -1
	if s := rt.sched; s.order != nil {
		// Walk the shared rotation. One lap visits every backend, since
		// each has a positive weight; with health on, a second lap fails
		// open and ignores it.
		n := uint64(len(s.order))
		health := rt.ejectAfter > 0
		laps := n
		if health {
			laps = 2 * n
		}
		for i := uint64(0); i < laps; i++ {
			j := int(s.order[(s.cursor.Add(1)-1)%n])
			if !tried.has(j) && (!health || i >= n || rt.cells[j].admit(now)) {
				idx = j
				break
			}
		}
	} else {
		idx = r.pickPolicy(rt, tried, now)
	}
	if idx >= 0 {
		if tried.n > 0 {
			r.Retried.Inc()
		}
		tried.add(idx)
	}
	return idx
}

// pickPolicy consults the policy object on the untried, eligible subset
// of rt's backends, failing open to every untried backend when health
// excludes them all.
func (r *Router[T]) pickPolicy(rt *Route[T], tried *Tried, now int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	health := rt.ejectAfter > 0
	for {
		r.sub, r.subStats, r.subIdx = r.sub[:0], r.subStats[:0], r.subIdx[:0]
		for i, c := range rt.cells {
			if !tried.has(i) && (!health || c.eligible(now)) {
				r.sub = append(r.sub, rt.Entries[i])
				r.subStats = append(r.subStats, c.stats())
				r.subIdx = append(r.subIdx, i)
			}
		}
		if len(r.subIdx) == 0 {
			if !health {
				return -1
			}
			health = false // fail open
			continue
		}
		k, err := r.policy.Pick(r.sub, r.subStats)
		if err != nil || k < 0 || k >= len(r.subIdx) {
			// Ill-behaved service-specific policy: this request fails;
			// nothing outside this service is touched (§5).
			return -1
		}
		if idx := r.subIdx[k]; !health || rt.cells[idx].admit(now) {
			return idx
		}
		// A concurrent request took the probe slot: choose again.
	}
}

// Begin marks a request in flight on backend i of rt.
func (r *Router[T]) Begin(rt *Route[T], i int) { rt.cells[i].active.Add(1) }

// Forwarded records that backend i accepted the request.
func (r *Router[T]) Forwarded(rt *Route[T], i int) {
	rt.cells[i].forwarded.Add(1)
	r.Routed.Inc()
}

// Done ends a served request on backend i: the failure streak resets and
// a successful half-open probe re-admits the backend.
func (r *Router[T]) Done(rt *Route[T], i int) {
	c := rt.cells[i]
	c.active.Add(-1)
	if rt.ejectAfter == 0 {
		return
	}
	c.fails.Store(0)
	c.probing.Store(false)
	if c.ejected.Swap(false) {
		r.Readmitted.Inc()
		r.Logger().Info("backend readmitted", telemetry.L("backend", c.addr))
	}
}

// Fail ends an attempt on backend i that failed at now: a failed probe
// re-arms the sit-out window, and enough consecutive in-rotation
// failures eject the backend.
func (r *Router[T]) Fail(rt *Route[T], i int, now int64) {
	c := rt.cells[i]
	c.active.Add(-1)
	if rt.ejectAfter == 0 {
		return
	}
	wasProbe := c.probing.Swap(false)
	if c.ejected.Load() {
		if wasProbe {
			c.reopenAt.Store(now + rt.probeNs)
		}
		return
	}
	if fails := c.fails.Add(1); fails >= int64(rt.ejectAfter) {
		c.fails.Store(0)
		c.reopenAt.Store(now + rt.probeNs) // before ejected, for eligible's readers
		if !c.ejected.Swap(true) {
			r.Ejected.Inc()
			r.Logger().Warn("backend ejected",
				telemetry.L("backend", c.addr), telemetry.L("fails", fmt.Sprint(fails)))
		}
	}
}
