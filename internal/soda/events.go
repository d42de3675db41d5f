package soda

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// EventKind classifies control-plane lifecycle events.
type EventKind int

// Control-plane event kinds, in rough lifecycle order.
const (
	// EventAdmitted: a creation request passed admission control.
	EventAdmitted EventKind = iota
	// EventRejected: a creation request failed admission or priming.
	EventRejected
	// EventNodePrimed: a daemon finished priming one node.
	EventNodePrimed
	// EventServiceActive: the switch is up and the service is serving.
	EventServiceActive
	// EventResized: the service's capacity changed.
	EventResized
	// EventTornDown: the service was removed.
	EventTornDown
	// EventSLOViolation: the accounting subsystem detected a service
	// burning its error budget past a multi-window threshold. The detail
	// names the dimension (latency/availability/cpu), window pair, and
	// burn rate; the matching "slo.violation" trace span, named by the
	// event's Trace, carries the breached window.
	EventSLOViolation
	// EventNodeFailed: a virtual service node was lost to a host crash or
	// guest-OS crash and has been removed from its service's route table.
	EventNodeFailed
	// EventNodeRecovered: a replacement node was primed and bound into
	// the switch after a failure; the detail carries the MTTR.
	EventNodeRecovered
	// EventHostSuspected: the failure detector missed enough heartbeats
	// from a host to suspect it, but has not yet confirmed death.
	EventHostSuspected
	// EventHostDead: the failure detector confirmed a host dead; recovery
	// of its nodes begins.
	EventHostDead
	// EventHostAlive: a suspected or dead host resumed heartbeating.
	EventHostAlive
	// EventRecoveryFailed: the Master could not place a replacement node
	// (no surviving capacity); it will retry after a back-off.
	EventRecoveryFailed
	// EventMasterDown: the standby's lease on the primary expired and a
	// takeover began; the detail carries the new epoch.
	EventMasterDown
	// EventFailover: the standby finished taking over — journal replayed,
	// daemons resynchronized; the detail carries the control-plane MTTR.
	EventFailover
	// EventDaemonResync: one daemon re-registered with the new leader and
	// reported its live guests, switches, and chunks.
	EventDaemonResync
	// EventAutoscale: the demand-driven control loop decided, completed,
	// or was blocked from a capacity change; the detail carries the
	// direction, targets, and the dominant signal.
	EventAutoscale
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventAdmitted:
		return "admitted"
	case EventRejected:
		return "rejected"
	case EventNodePrimed:
		return "node-primed"
	case EventServiceActive:
		return "active"
	case EventResized:
		return "resized"
	case EventTornDown:
		return "torn-down"
	case EventSLOViolation:
		return "slo-violation"
	case EventNodeFailed:
		return "node-failed"
	case EventNodeRecovered:
		return "node-recovered"
	case EventHostSuspected:
		return "host-suspected"
	case EventHostDead:
		return "host-dead"
	case EventHostAlive:
		return "host-alive"
	case EventRecoveryFailed:
		return "recovery-failed"
	case EventMasterDown:
		return "master-down"
	case EventFailover:
		return "failover"
	case EventDaemonResync:
		return "daemon-resync"
	case EventAutoscale:
		return "autoscale"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one control-plane occurrence.
type Event struct {
	// At is the virtual timestamp.
	At sim.Time
	// Kind classifies the event.
	Kind EventKind
	// Service names the service involved.
	Service string
	// Node names the node involved, when node-scoped.
	Node string
	// Detail carries human-readable context.
	Detail string
	// Trace is the ID of the trace the fact belongs to (the span tree of
	// the operation that raised it), or 0 when none.
	Trace uint64
}

// String renders one trace line.
func (e Event) String() string {
	if e.Node != "" {
		return fmt.Sprintf("%v %-12s %s/%s %s", e.At, e.Kind, e.Service, e.Node, e.Detail)
	}
	return fmt.Sprintf("%v %-12s %s %s", e.At, e.Kind, e.Service, e.Detail)
}

// Observer receives control-plane events as they happen.
type Observer func(Event)

// Observe registers an observer on the Master. Multiple observers are
// invoked in registration order.
func (m *Master) Observe(obs Observer) {
	if obs == nil {
		panic("soda: nil observer")
	}
	m.observers = append(m.observers, obs)
}

// emit publishes an event, stamped with its trace (0 for none), to all
// observers.
func (m *Master) emit(kind EventKind, trace uint64, service, node, detail string) {
	if len(m.observers) == 0 {
		return
	}
	e := Event{At: m.net.Kernel().Now(), Kind: kind, Service: service, Node: node, Detail: detail, Trace: trace}
	for _, obs := range m.observers {
		obs(e)
	}
}

// EventRecorder is a convenience observer that retains events for tests
// and consoles. It is safe for concurrent use: the simulation emits on
// one goroutine, but HTTP servers and tests may read while it records.
type EventRecorder struct {
	mu     sync.Mutex
	events []Event
}

// Record is the observer function.
func (r *EventRecorder) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

// Events returns a copy of the recorded events in order.
func (r *EventRecorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Len returns how many events were recorded.
func (r *EventRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Kinds returns the recorded kinds in order.
func (r *EventRecorder) Kinds() []EventKind {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EventKind, len(r.events))
	for i, e := range r.events {
		out[i] = e.Kind
	}
	return out
}

// CountOf returns how many events of a kind were recorded.
func (r *EventRecorder) CountOf(kind EventKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
