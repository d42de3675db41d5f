package svcswitch

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/flight"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// Trace is one request's timeline through the switch, for latency
// breakdown analysis. Stages are virtual timestamps:
//
//	Accepted   → the client handed the request to Route
//	Arrived    → the request reached the switch node (client→switch hop)
//	Picked     → switch CPU done, a backend chosen
//	Delivered  → the request reached the backend (switch→backend hop)
//	Completed  → the response was fully delivered to the client
type Trace struct {
	Accepted, Arrived, Picked, Delivered, Completed sim.Time
	// ID is the request's sequence number within this switch, starting
	// at 1. It doubles as the trace ID stamped onto latency-histogram
	// exemplars, so an outlier bucket points back at a concrete request.
	ID uint64
	// Backend is the chosen node's address; empty when dropped.
	Backend string
	// Retries counts picks after the first: backends abandoned (dead,
	// unbound, or failed mid-flight) for another.
	Retries int
	// Dropped marks requests that never reached a live backend.
	Dropped bool
}

// SwitchHop returns the client→switch plus routing time.
func (t Trace) SwitchHop() sim.Duration { return t.Delivered.Sub(t.Accepted) }

// ServiceTime returns the backend handling + response time.
func (t Trace) ServiceTime() sim.Duration { return t.Completed.Sub(t.Delivered) }

// Total returns the end-to-end response time.
func (t Trace) Total() sim.Duration { return t.Completed.Sub(t.Accepted) }

// record fills a reqtrace.Record from the timeline. Stage boundaries
// the request never reached (zero timestamps) contribute nothing; the
// remainder of a dropped request's timeline past its last reached
// boundary stays unattributed. For a served request the four stages
// sum exactly to TotalNs. Retried upstream attempts land in
// UpstreamNs: Picked is the first pick, Delivered the successful one.
func (t *Trace) record(rec *reqtrace.Record) {
	*rec = reqtrace.Record{
		ID:      t.ID,
		StartNs: int64(t.Accepted),
		Backend: t.Backend,
		Retries: t.Retries,
		Dropped: t.Dropped,
		TotalNs: int64(t.Completed.Sub(t.Accepted)),
	}
	prev := t.Accepted
	if t.Arrived != 0 {
		rec.QueueNs = int64(t.Arrived.Sub(prev))
		prev = t.Arrived
	}
	if t.Picked != 0 {
		rec.RouteNs = int64(t.Picked.Sub(prev))
		prev = t.Picked
	}
	if t.Delivered != 0 {
		rec.UpstreamNs = int64(t.Delivered.Sub(prev))
		prev = t.Delivered
	}
	if !t.Dropped {
		rec.ServeNs = int64(t.Completed.Sub(prev))
	}
}

// Node is where the switch itself executes — it is "co-located in one of
// the virtual service nodes" (§3.4), so its processing pays that node's
// prices. appsvc's backends satisfy this interface.
type Node interface {
	IP() simnet.IP
	ExecCPU(c cycles.Cycles, onDone func()) bool
	SyscallCost(s cycles.Syscall) cycles.Cycles
	Alive() bool
}

// Handler is the service-side entry point for one backend: it serves a
// request from clientIP and fires onDone when the response has been
// delivered. A false return means the backend is down.
type Handler func(clientIP simnet.IP, onDone func()) bool

// Request is one client request arriving at the switch.
type Request struct {
	// ClientIP receives the response.
	ClientIP simnet.IP
	// Bytes is the request message size.
	Bytes int64
	// Component names the target service component for partitionable
	// services; empty for the paper's fully replicated services.
	Component string
	// OnDone fires when the response is fully delivered.
	OnDone func()
}

// inflight is the per-request state machine. Requests draw these from a
// free list on the switch; the four stage callbacks are bound once per
// struct lifetime, so routing, retries included, performs zero heap
// allocations per request.
type inflight struct {
	s     *Switch
	req   Request
	tr    Trace
	rt    *Route[Handler] // the component's route, fixed for the request
	tried Tried
	pick  int // chosen backend, an index into rt

	// rec is the reqtrace scratch record, rebuilt from tr at completion
	// so the Offer argument lives in the pooled op and never escapes.
	rec reqtrace.Record

	onArrive  func() // client→switch hop delivered
	onExec    func() // switch CPU burst done, pick next
	onDeliver func() // switch→backend hop delivered
	onServe   func() // backend finished serving
}

// Switch accepts client requests and directs each to a backend virtual
// service node. Routing costs are real: the request crosses the LAN to
// the switch's node, the switch spends CPU parsing and forwarding (at its
// node's syscall prices), and the request crosses the LAN again to the
// chosen backend. Responses return directly from the backend to the
// client (direct server return), which keeps switch overhead modest — the
// behaviour Figure 6's scenario comparison shows.
type Switch struct {
	// Config is the service configuration file the Master maintains.
	Config *ConfigFile

	node     Node
	net      *simnet.Network
	handlers map[string]Handler
	onTrace  func(Trace)

	// r is the routing core shared with realswitch: route table, policy,
	// passive health, retry walk, and counters.
	r *Router[Handler]

	// reqSeq numbers requests; Trace.ID and histogram exemplars use it
	// until SetRequestTracer switches the switch onto the collector's
	// store-wide ID sequence.
	reqSeq uint64

	// rtc is the tail-sampling request collector; nil (untraced) until
	// SetRequestTracer.
	rtc *reqtrace.Collector

	opFree sim.FreeList[inflight]
}

// requestHandlingSyscalls is the switch's per-request work: accept, read,
// parse, connect, forward, close.
var requestHandlingSyscalls = []cycles.Syscall{
	cycles.Socket, cycles.Recv, cycles.Getpid, cycles.Socket, cycles.Send, cycles.Close,
}

// New creates a switch for the given service configuration, running on
// node, with the default weighted-round-robin policy.
func New(net *simnet.Network, node Node, config *ConfigFile) *Switch {
	s := &Switch{
		Config:   config,
		node:     node,
		net:      net,
		handlers: make(map[string]Handler),
	}
	s.r = NewRouter(config, true, func(addr string) Handler { return s.handlers[addr] })
	return s
}

// Instrument connects the switch's counters and latency histograms to a
// registry, labeled by service name. A nil registry (the default) keeps
// the counters working — they back Routed/Dropped/Retried — but disables
// histogram collection, so the routing hot path stays cheap.
func (s *Switch) Instrument(reg *telemetry.Registry) { s.r.Instrument(reg) }

// SetRequestTracer attaches a tail-sampling request collector. While
// attached, trace IDs come from the collector's store-wide sequence —
// so /traces/{id} resolves unambiguously across services — and latency
// exemplars are stamped only for retained requests, making every
// exposed exemplar point at a resolvable trace. Nil detaches and
// restores the per-switch reqSeq numbering.
func (s *Switch) SetRequestTracer(c *reqtrace.Collector) { s.rtc = c }

// RequestTracer returns the attached collector, nil when untraced.
func (s *Switch) RequestTracer() *reqtrace.Collector { return s.rtc }

// SetLogger routes the switch's backend-health transitions (ejection,
// half-open re-admission) into the flight recorder. Per-request traffic
// is never logged — the hot path stays allocation-free. Nil restores the
// no-op default.
func (s *Switch) SetLogger(l *flight.Logger) { s.r.SetLogger(l) }

// Routed returns how many requests were forwarded to a backend.
func (s *Switch) Routed() int { return int(s.r.Routed.Value()) }

// Dropped returns how many requests could not be served (no live
// backend, ill-behaved policy, dead switch node).
func (s *Switch) Dropped() int { return int(s.r.Dropped.Value()) }

// Retried returns how many backend picks followed an abandoned one
// (dead, unbound, or mid-flight-failed backends).
func (s *Switch) Retried() int { return int(s.r.Retried.Value()) }

// LatencyHistogram returns the end-to-end latency histogram, nil when
// the switch is uninstrumented. The SLO evaluator diffs its snapshots
// into per-window distributions.
func (s *Switch) LatencyHistogram() *telemetry.Histogram { return s.r.LatencyHistogram() }

// IP returns the address clients send requests to.
func (s *Switch) IP() simnet.IP { return s.node.IP() }

// Policy returns the active switching policy.
func (s *Switch) Policy() Policy { return s.r.Policy() }

// SetPolicy installs a service-specific policy (the ASP's replacement
// hook, §3.4).
func (s *Switch) SetPolicy(p Policy) { s.r.SetPolicy(p) }

// SetHealth configures passive backend health tracking. A zero
// EjectAfter disables it and clears all records. Enabling is an RCU-style
// config change: the route table rebuilds on the next request.
func (s *Switch) SetHealth(cfg HealthConfig) { s.r.SetHealth(cfg) }

// Health returns the active health configuration.
func (s *Switch) Health() HealthConfig { return s.r.Health() }

// BackendEjected reports whether passive health currently holds the
// backend address out of the rotation.
func (s *Switch) BackendEjected(addr string) bool { return s.r.BackendEjected(addr) }

// EjectedTotal returns how many times a backend was ejected.
func (s *Switch) EjectedTotal() int { return int(s.r.Ejected.Value()) }

// ReadmittedTotal returns how many times an ejected backend was
// re-admitted after a successful half-open probe.
func (s *Switch) ReadmittedTotal() int { return int(s.r.Readmitted.Value()) }

// Node returns the node the switch executes on.
func (s *Switch) Node() Node { return s.node }

// SetNode re-homes the switch onto a different virtual service node —
// the recovery path when the node hosting the switch dies (§3.4 co-
// location). The Switch pointer stays stable, so client routes and
// accounting hooks keep working across the move.
func (s *Switch) SetNode(n Node) {
	if n == nil {
		panic("svcswitch: nil node")
	}
	s.node = n
}

// OnTrace installs a per-request trace hook, called once per request at
// completion or drop. Nil removes the hook.
func (s *Switch) OnTrace(fn func(Trace)) { s.onTrace = fn }

func (s *Switch) emitTrace(t *Trace) {
	if s.onTrace != nil {
		s.onTrace(*t)
	}
}

// Bind registers the handler for a backend address. The HUP assembly
// binds each virtual service node's service instance after priming.
func (s *Switch) Bind(e BackendEntry, h Handler) {
	s.handlers[e.Addr()] = h
	s.r.Invalidate()
}

// Unbind removes a backend's handler (tear-down, resizing), along with
// its forwarding statistics, health record and per-backend latency
// histogram — without the eviction, repeated resizing would grow them
// without bound.
func (s *Switch) Unbind(e BackendEntry) {
	delete(s.handlers, e.Addr())
	s.r.Forget(e.Addr())
}

// StatsFor returns the forwarding statistics for a backend address.
func (s *Switch) StatsFor(e BackendEntry) Stats { return s.r.StatsFor(e.Addr()) }

// getOp draws an inflight op from the free list, binding its stage
// callbacks on first construction only.
func (s *Switch) getOp() *inflight {
	if op := s.opFree.Get(); op != nil {
		return op
	}
	op := &inflight{s: s}
	op.onArrive = func() {
		op.tr.Arrived = op.s.net.Kernel().Now()
		op.s.dispatch(op)
	}
	op.onExec = func() {
		op.tr.Picked = op.s.net.Kernel().Now()
		op.rt = op.s.r.Route(op.req.Component)
		op.s.forward(op)
	}
	op.onDeliver = func() { op.s.deliver(op) }
	op.onServe = func() { op.s.serve(op) }
	return op
}

// putOp returns an op to the free list. Callbacks copy what they need
// before releasing: the op is reusable immediately afterwards.
func (s *Switch) putOp(op *inflight) {
	op.req, op.tr, op.rt, op.pick = Request{}, Trace{}, nil, 0
	op.tried.Reset()
	s.opFree.Put(op)
}

// Route accepts one request: LAN hop to the switch, switch CPU, policy
// pick, LAN hop to the backend, service handling. Dead backends are
// skipped (the pick walks on to an untried backend); if no live backend
// remains, the request is dropped.
func (s *Switch) Route(req Request) error {
	op := s.getOp()
	op.req = req
	s.reqSeq++
	if s.rtc != nil {
		op.tr.ID = s.rtc.NextID()
	} else {
		op.tr.ID = s.reqSeq
	}
	op.tr.Accepted = s.net.Kernel().Now()
	if !s.node.Alive() {
		s.drop(op)
		return fmt.Errorf("svcswitch: switch node %s is down", s.node.IP())
	}
	// Client → switch.
	if err := s.net.Transfer(req.ClientIP, s.node.IP(), req.Bytes, op.onArrive); err != nil {
		s.drop(op)
		return err
	}
	return nil
}

// drop records a failed request and retires its op.
func (s *Switch) drop(op *inflight) {
	s.r.Dropped.Inc()
	op.tr.Dropped = true
	op.tr.Completed = s.net.Kernel().Now()
	if s.rtc != nil {
		op.tr.record(&op.rec)
		s.rtc.Offer(&op.rec)
	}
	s.emitTrace(&op.tr)
	s.putOp(op)
}

// dispatch runs at the switch node after the request arrives.
func (s *Switch) dispatch(op *inflight) {
	var cost cycles.Cycles
	for _, sc := range requestHandlingSyscalls {
		cost += s.node.SyscallCost(sc)
	}
	if !s.node.ExecCPU(cost, op.onExec) {
		s.drop(op)
	}
}

// forward picks a backend from the op's route and hands the request
// over, walking on to an untried backend if the pick is unbound or the
// forward fails.
func (s *Switch) forward(op *inflight) {
	now := int64(s.net.Kernel().Now())
	for op.rt != nil {
		i := s.r.Pick(op.rt, &op.tried, now)
		if i < 0 {
			break
		}
		op.tr.Retries = op.tried.Len() - 1
		if op.rt.Targets[i] == nil {
			continue // unbound
		}
		op.pick = i
		s.r.Begin(op.rt, i)
		// Switch → backend, then service handling.
		if err := s.net.Transfer(s.node.IP(), op.rt.Entries[i].IP, op.req.Bytes, op.onDeliver); err != nil {
			s.r.Fail(op.rt, i, now)
			continue
		}
		return
	}
	s.drop(op)
}

// deliver runs when the request reaches the chosen backend: hand it to
// the service handler, or walk on if the backend died while the forward
// was in flight.
func (s *Switch) deliver(op *inflight) {
	op.tr.Delivered = s.net.Kernel().Now()
	op.tr.Backend = op.rt.Addrs[op.pick]
	if op.rt.Targets[op.pick](op.req.ClientIP, op.onServe) {
		s.r.Forwarded(op.rt, op.pick)
		return
	}
	s.r.Fail(op.rt, op.pick, int64(op.tr.Delivered))
	s.forward(op)
}

// serve runs when the backend has delivered the response to the client.
func (s *Switch) serve(op *inflight) {
	s.r.Done(op.rt, op.pick)
	op.tr.Completed = s.net.Kernel().Now()
	exID := op.tr.ID
	if s.rtc != nil {
		op.tr.record(&op.rec)
		if !s.rtc.Offer(&op.rec) {
			exID = 0 // unretained: leave no dangling exemplar
		}
	}
	op.rt.Latency.ObserveTraced(op.tr.Total().Seconds(), exID)
	op.rt.Hists[op.pick].ObserveTraced(op.tr.ServiceTime().Seconds(), exID)
	s.emitTrace(&op.tr)
	onDone := op.req.OnDone
	s.putOp(op)
	if onDone != nil {
		onDone()
	}
}
