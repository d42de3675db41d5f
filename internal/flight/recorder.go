package flight

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/reqtrace"
	"repro/internal/telemetry"
)

// RouteTable is a point-in-time rendering of one service's switch
// configuration, captured into incident bundles so a forensic reader sees
// what the data plane was routing to when things went wrong.
type RouteTable struct {
	Service string `json:"service"`
	Table   string `json:"table"`
}

// Options configures a Recorder. Only Clock is required.
type Options struct {
	// Clock supplies record timestamps as offsets from a fixed epoch —
	// the simulation kernel's virtual clock under test, wall time in a
	// live sodad. Required.
	Clock func() time.Duration

	// Metrics, Spans, Routes, Faults, and Traces supply forensic context
	// for incident bundles. All are optional. Metrics is called at
	// trigger time (baseline) and seal time (delta); the others at seal
	// time only. Seal-time providers run from Tick, never from inside a
	// log append, so they may take control-plane locks.
	Metrics func() telemetry.Snapshot
	Spans   func() []telemetry.SpanView
	Routes  func() []RouteTable
	Faults  func() []string
	// Traces supplies retained request traces relevant to the incident
	// (the testbed wires it to the reqtrace store's slow traces for the
	// violating service on slo-violation triggers).
	Traces func(trigger, subject string) []reqtrace.Record
}

// The recorder's bounds.
const (
	// ringCapacity is the ring size in records.
	ringCapacity = 4096
	// preRecords is how many records of pre-trigger context an incident
	// copies out of the ring.
	preRecords = 256
	// postWindow is how long past the trigger an incident keeps
	// collecting before it seals. It must comfortably cover the
	// platform's detection-to-recovery time so one bundle tells the
	// whole story.
	postWindow = 15 * time.Second
	// cooldown suppresses repeat triggers with the same (trigger,
	// subject) key so a flapping host does not flood the incident store.
	cooldown = 30 * time.Second
	// maxIncidents bounds retained sealed incidents; the oldest are
	// evicted first.
	maxIncidents = 32
	// maxIncidentRecords bounds the records captured into one incident;
	// overflow increments the bundle's Truncated count.
	maxIncidentRecords = 1024
)

// openIncident is an incident between trigger and seal: it accumulates
// every record appended to the ring until its deadline passes.
type openIncident struct {
	inc      *Incident
	deadline time.Duration
	baseline telemetry.Snapshot
}

// Recorder is the black box: a bounded ring of Records plus the incident
// store. One short mutex guards everything; the append path takes it for
// a struct copy and a few comparisons — no allocation, no I/O — so the
// recorder stays "lock-light" even with many concurrent writers. All
// methods are safe on a nil recorder.
type Recorder struct {
	opt Options

	mu         sync.Mutex
	ring       []Record
	seq        uint64 // next sequence number; records written so far
	open       []*openIncident
	sealed     []*Incident
	nIncidents uint64 // total ever opened, for ID assignment
	lastFire   map[string]time.Duration
	suppressed uint64
}

// NewRecorder returns a recorder with the given options. Panics if
// opt.Clock is nil.
func NewRecorder(opt Options) *Recorder {
	if opt.Clock == nil {
		panic("flight: Options.Clock is required")
	}
	return &Recorder{
		opt:      opt,
		ring:     make([]Record, ringCapacity),
		lastFire: make(map[string]time.Duration),
	}
}

// append stamps the record's sequence number, writes it into the ring,
// and feeds any open incidents. Called by Logger only (rec is non-nil by
// construction there).
func (r *Recorder) append(rec *Record) {
	r.mu.Lock()
	rec.Seq = r.seq
	r.ring[r.seq%uint64(len(r.ring))] = *rec
	r.seq++
	for _, oi := range r.open {
		if rec.At > oi.deadline {
			continue
		}
		if len(oi.inc.Records) >= maxIncidentRecords {
			oi.inc.Truncated++
			continue
		}
		oi.inc.Records = append(oi.inc.Records, rec.View())
	}
	r.mu.Unlock()
}

// Seq returns the total number of records ever appended. Nil-safe.
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Suppressed returns how many triggers the cooldown swallowed. Nil-safe.
func (r *Recorder) Suppressed() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.suppressed
}

// Tail returns up to n of the most recent records (oldest first) at or
// above min, optionally filtered to one component (empty = all). Nil-safe
// (nil slice).
func (r *Recorder) Tail(n int, min Level, component string) []RecordView {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cap64 := uint64(len(r.ring))
	avail := r.seq
	if avail > cap64 {
		avail = cap64
	}
	size := avail // n may exceed what the ring can hold
	if uint64(n) < size {
		size = uint64(n)
	}
	out := make([]RecordView, 0, size)
	// Walk backwards from the newest record collecting matches, then
	// reverse into chronological order.
	for i := uint64(0); i < avail && len(out) < n; i++ {
		rec := &r.ring[(r.seq-1-i)%cap64]
		if rec.Level < min {
			continue
		}
		if component != "" && rec.Comp != component {
			continue
		}
		out = append(out, rec.View())
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// CaptureMetrics takes a registry snapshot (via Options.Metrics) and
// appends a heartbeat record noting the capture. Wire it to a periodic timer — the testbed uses the simulation
// kernel, sodad a wall-clock ticker. Nil-safe.
func (r *Recorder) CaptureMetrics() {
	if r == nil || r.opt.Metrics == nil {
		return
	}
	snap := r.opt.Metrics() // registry locks only; taken outside r.mu
	at := r.opt.Clock()
	rec := Record{
		At:    at,
		Level: LevelDebug,
		Comp:  "flight",
		Msg:   "metrics snapshot",
	}
	rec.labels[0] = telemetry.L("counters", fmt.Sprint(len(snap.Counters)))
	rec.labels[1] = telemetry.L("histograms", fmt.Sprint(len(snap.Histograms)))
	rec.n = 2
	r.append(&rec)
}

// Trigger opens an incident named by trigger (the event kind or "manual")
// and subject (the service or node concerned). It copies the pre-trigger
// context out of the ring immediately and keeps collecting records until
// the post window elapses; Tick then seals the bundle. Repeat triggers
// with the same (trigger, subject) inside the cooldown are suppressed. It
// returns the incident ID, or "" when suppressed or on a nil recorder.
//
// Trigger is safe to call from event observers: it touches only the
// recorder mutex and the Metrics provider (registry locks), never the
// control-plane locks the observer may be running under.
func (r *Recorder) Trigger(trigger, subject, detail string) string {
	if r == nil {
		return ""
	}
	now := r.opt.Clock()
	key := trigger + "/" + subject

	r.mu.Lock()
	if last, ok := r.lastFire[key]; ok && now-last < cooldown {
		r.suppressed++
		r.mu.Unlock()
		return ""
	}
	r.lastFire[key] = now
	r.nIncidents++
	inc := &Incident{
		ID:        fmt.Sprintf("inc-%d-%s", r.nIncidents, trigger),
		Trigger:   trigger,
		Subject:   subject,
		Detail:    detail,
		OpenedSec: now.Seconds(),
		Open:      true,
		Records:   r.tailLocked(preRecords),
	}
	oi := &openIncident{inc: inc, deadline: now + postWindow}
	r.open = append(r.open, oi)
	r.mu.Unlock()

	// Baseline for the metric delta, taken outside the recorder mutex.
	if r.opt.Metrics != nil {
		base := r.opt.Metrics()
		r.mu.Lock()
		oi.baseline = base
		r.mu.Unlock()
	}
	return inc.ID
}

// tailLocked copies the newest n records (chronological order); r.mu held.
func (r *Recorder) tailLocked(n int) []RecordView {
	cap64 := uint64(len(r.ring))
	avail := r.seq
	if avail > cap64 {
		avail = cap64
	}
	if uint64(n) > avail {
		n = int(avail)
	}
	out := make([]RecordView, 0, min(uint64(n), avail))
	for i := r.seq - uint64(n); i < r.seq; i++ {
		out = append(out, r.ring[i%cap64].View())
	}
	return out
}

// Tick seals every open incident whose post window has elapsed, invoking
// the seal-time providers (spans, routes, faults, metric delta). Call it
// from a periodic timer in the same clock domain as Options.Clock; under
// the simulation kernel that makes sealing — and therefore bundle
// content — deterministic. Nil-safe.
func (r *Recorder) Tick() {
	if r == nil {
		return
	}
	now := r.opt.Clock()
	r.mu.Lock()
	var due []*openIncident
	keep := r.open[:0]
	for _, oi := range r.open {
		if now > oi.deadline {
			due = append(due, oi)
		} else {
			keep = append(keep, oi)
		}
	}
	r.open = keep
	r.mu.Unlock()
	for _, oi := range due {
		r.seal(oi, now)
	}
}

// SealAll force-seals every open incident now, regardless of deadline —
// end-of-run flushing for experiments and tests. Nil-safe.
func (r *Recorder) SealAll() {
	if r == nil {
		return
	}
	now := r.opt.Clock()
	r.mu.Lock()
	due := r.open
	r.open = nil
	r.mu.Unlock()
	for _, oi := range due {
		r.seal(oi, now)
	}
}

// seal finalizes one incident: stamps the seal time, gathers forensic
// context from the providers (no recorder lock held — providers may take
// control-plane locks), and files the bundle.
func (r *Recorder) seal(oi *openIncident, now time.Duration) {
	inc := oi.inc
	inc.SealedSec = now.Seconds()
	inc.Open = false
	if r.opt.Metrics != nil {
		delta := diffSnapshots(oi.baseline, r.opt.Metrics())
		inc.MetricDelta = &delta
	}
	if r.opt.Spans != nil {
		inc.Spans = spansInWindow(r.opt.Spans(), inc.OpenedSec-postWindow.Seconds(), inc.SealedSec)
	}
	if r.opt.Routes != nil {
		inc.Routes = r.opt.Routes()
	}
	if r.opt.Faults != nil {
		inc.Faults = r.opt.Faults()
	}
	if r.opt.Traces != nil {
		inc.Traces = r.opt.Traces(inc.Trigger, inc.Subject)
	}
	r.mu.Lock()
	r.sealed = append(r.sealed, inc)
	if over := len(r.sealed) - maxIncidents; over > 0 {
		r.sealed = append([]*Incident(nil), r.sealed[over:]...)
	}
	r.mu.Unlock()
}

// Incidents lists sealed incidents (oldest first) followed by still-open
// ones. Returned bundles are shared snapshots: sealed incidents are
// immutable; open ones are copied. Nil-safe (nil slice).
func (r *Recorder) Incidents() []*Incident {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Incident, 0, len(r.sealed)+len(r.open))
	out = append(out, r.sealed...)
	for _, oi := range r.open {
		out = append(out, oi.inc.clone())
	}
	return out
}

// Incident returns the incident with the given ID, or nil. Nil-safe.
func (r *Recorder) Incident(id string) *Incident {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, inc := range r.sealed {
		if inc.ID == id {
			return inc
		}
	}
	for _, oi := range r.open {
		if oi.inc.ID == id {
			return oi.inc.clone()
		}
	}
	return nil
}

// Stats summarizes recorder state for exposition.
type Stats struct {
	Records    uint64 `json:"records"`
	Capacity   int    `json:"capacity"`
	Incidents  int    `json:"incidents"`
	Open       int    `json:"open_incidents"`
	Suppressed uint64 `json:"suppressed_triggers"`
}

// StatsNow returns current recorder statistics. Nil-safe (zero Stats).
func (r *Recorder) StatsNow() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Records:    r.seq,
		Capacity:   len(r.ring),
		Incidents:  len(r.sealed),
		Open:       len(r.open),
		Suppressed: r.suppressed,
	}
}
