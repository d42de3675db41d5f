package flight

import (
	"repro/internal/reqtrace"
	"repro/internal/telemetry"
)

// Incident is a frozen forensic bundle: the records around a trigger
// event, the span trees overlapping the window, the metric movement
// between trigger and seal, the route tables, and the active fault
// schedule. Once sealed it never changes, and — content permitting, which
// virtual-time runs guarantee — marshals to byte-identical JSON across
// same-seed runs (slice fields are deterministically ordered, map keys
// are sorted by encoding/json).
type Incident struct {
	// ID is "inc-<n>-<trigger>", n counting incidents from 1.
	ID string `json:"id"`
	// Trigger is what opened the incident: a SODA event kind string
	// ("host-dead", "slo-violation", "node-recovered", ...) or "manual".
	Trigger string `json:"trigger"`
	// Subject is the service or node the trigger concerned, if any.
	Subject string `json:"subject,omitempty"`
	// Detail carries the triggering event's detail text.
	Detail string `json:"detail,omitempty"`
	// OpenedSec / SealedSec delimit the capture window (clock offsets in
	// seconds). SealedSec is 0 while the incident is still open.
	OpenedSec float64 `json:"opened_s"`
	SealedSec float64 `json:"sealed_s"`
	// Open marks an incident still collecting its post window.
	Open bool `json:"open,omitempty"`

	// Records is the pre-trigger context (up to 256 records) plus
	// everything captured until the post window closed, in order.
	Records []RecordView `json:"records"`
	// Truncated counts records dropped past the 1024-record cap.
	Truncated int `json:"truncated_records,omitempty"`
	// Spans holds the root span trees overlapping the capture window —
	// the triggering operation's subtree among them.
	Spans []telemetry.SpanView `json:"spans,omitempty"`
	// MetricDelta is the movement of every instrument between trigger
	// and seal: counter deltas, gauge deltas, windowed histograms.
	// Instruments that did not move are omitted.
	MetricDelta *telemetry.Snapshot `json:"metric_delta,omitempty"`
	// Routes captures each service's switch configuration at seal time.
	Routes []RouteTable `json:"routes,omitempty"`
	// Faults lists the chaos injector's active faults at seal time, when
	// chaos is enabled.
	Faults []string `json:"faults,omitempty"`
	// Traces holds retained request traces relevant to the incident —
	// on slo-violation triggers, the violating service's retained slow
	// requests with per-stage latency attribution.
	Traces []reqtrace.Record `json:"traces,omitempty"`
}

// clone deep-copies the incident's mutable parts (used to hand out
// consistent views of still-open incidents).
func (inc *Incident) clone() *Incident {
	cp := *inc
	cp.Records = append([]RecordView(nil), inc.Records...)
	cp.Traces = append([]reqtrace.Record(nil), inc.Traces...)
	return &cp
}

// HasRecord reports whether any captured record's message equals msg.
// Experiments use it to assert an incident's narrative covers specific
// lifecycle stages (host-dead through node-recovered).
func (inc *Incident) HasRecord(msg string) bool {
	for _, r := range inc.Records {
		if r.Msg == msg {
			return true
		}
	}
	return false
}

// diffSnapshots returns now − base with unmoved instruments dropped:
// counter entries carry the delta, gauge entries the delta of their
// values, histogram entries the windowed distribution (Sub). Ordering
// follows now's (deterministic, key-sorted) ordering.
func diffSnapshots(base, now telemetry.Snapshot) telemetry.Snapshot {
	var out telemetry.Snapshot
	for _, c := range now.Counters {
		prev := base.Counter(c.Name, labelsOf(c.Labels)...)
		if d := c.Value - prev; d != 0 {
			out.Counters = append(out.Counters, telemetry.CounterSnapshot{
				Name: c.Name, Labels: c.Labels, Value: d,
			})
		}
	}
	for _, g := range now.Gauges {
		prev := base.Gauge(g.Name, labelsOf(g.Labels)...)
		if d := g.Value - prev; d != 0 {
			out.Gauges = append(out.Gauges, telemetry.GaugeSnapshot{
				Name: g.Name, Labels: g.Labels, Value: d,
			})
		}
	}
	for _, h := range now.Histograms {
		prev := histogramOf(base, h.Name, h.Labels)
		w := h.Sub(prev)
		if w.Count != 0 {
			out.Histograms = append(out.Histograms, w)
		}
	}
	return out
}

func labelsOf(m map[string]string) []telemetry.Label {
	if len(m) == 0 {
		return nil
	}
	out := make([]telemetry.Label, 0, len(m))
	for k, v := range m {
		out = append(out, telemetry.L(k, v))
	}
	return out
}

func histogramOf(s telemetry.Snapshot, name string, labels map[string]string) telemetry.HistogramSnapshot {
	for _, h := range s.Histograms {
		if h.Name != name || len(h.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if h.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return h
		}
	}
	return telemetry.HistogramSnapshot{}
}

// spansInWindow selects root spans overlapping [from, to] seconds: still
// open, or ended inside the window, having started before it closed.
func spansInWindow(roots []telemetry.SpanView, from, to float64) []telemetry.SpanView {
	var out []telemetry.SpanView
	for _, sp := range roots {
		if sp.StartSec > to {
			continue
		}
		if !sp.Open && sp.EndSec < from {
			continue
		}
		out = append(out, sp)
	}
	return out
}
