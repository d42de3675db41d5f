package soda

import (
	"fmt"
	"sort"

	"repro/internal/autoscale"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The demand-driven control loop. §3.4 promises that on load changes the
// Master "will either adjust the resources in the current virtual
// service nodes, or add/remove virtual service node(s)"; this file is
// the closed loop that delivers it. Each tick it reads the signals the
// platform already produces — the accounting meter's delivered CPU
// against the un-inflated reservation, the SLO evaluator's burn rates
// and latch, the switch's drop counter, and reqtrace's retained-slow
// count — hands them to the pure policy controller
// (internal/autoscale.Decide), and drives ResizeService toward the
// decided target.
//
// Determinism and HA discipline:
//
//   - Decisions are a pure function of (policy, state, signals); the loop
//     iterates services in sorted order under the virtual clock, so a
//     seed fully determines the decision sequence.
//   - Every state mutation is journaled before acting: a decision
//     appends autoscale-decision (marking the resize pending, with an
//     *absolute* target) before any daemon sees a command, and the
//     completion appends autoscale-done. A warm standby therefore
//     reconstructs cooldown clocks, counters, and the pending resize
//     exactly; after takeover it re-issues any pending resize to its
//     absolute target, which is idempotent — a resize that already took
//     effect completes as a no-op — so a failover can neither
//     double-scale nor lose a resize.
//   - The resize itself is epoch-fenced like every mutation: a deposed
//     leader's in-flight commands die at the daemons, and its
//     completion callbacks are discarded (see autoscaleDone).

// autoscaler is one service's live controller instance: the normalized
// policy, the journaled runtime state, and the live-only signal taps.
type autoscaler struct {
	pol autoscale.Policy
	st  autoscale.State

	// Signal taps and event-dedup memory. Deliberately live-only and
	// excluded from the journaled state: replay folds journaled records
	// rather than re-running decision logic, so the Blocked counter
	// advances exactly when a record was journaled, and these taps
	// resetting on failover costs at most one duplicate blocked event.
	prevDropped int
	prevSlow    uint64
	lastBlock   string

	// lastDecision and lastAt describe the most recent tick's verdict,
	// for the /autoscale surface.
	lastDecision string
	lastAt       sim.Time
}

// captured converts the live controller state into its journaled form.
func (a *autoscaler) captured(name string) jAutoscalerState {
	return jAutoscalerState{
		Service:       name,
		LastUpNs:      int64(a.st.LastUp),
		LastDownNs:    int64(a.st.LastDown),
		Ups:           a.st.Ups,
		Downs:         a.st.Downs,
		Blocked:       a.st.Blocked,
		Pending:       a.st.Pending,
		PendingTarget: a.st.PendingTarget,
		PendingDir:    a.st.PendingDir,
	}
}

// restoredAutoscaler rebuilds a live controller from replayed state.
func restoredAutoscaler(pol autoscale.Policy, js jAutoscalerState) *autoscaler {
	return &autoscaler{
		pol: pol.Normalize(),
		st: autoscale.State{
			LastUp:        sim.Time(js.LastUpNs),
			LastDown:      sim.Time(js.LastDownNs),
			Ups:           js.Ups,
			Downs:         js.Downs,
			Blocked:       js.Blocked,
			Pending:       js.Pending,
			PendingTarget: js.PendingTarget,
			PendingDir:    js.PendingDir,
		},
	}
}

// armAutoscaler creates the controller for a just-admitted service with
// an enabled policy. Arming is implicit in admission — the journaled
// spec carries the policy — so no separate record is needed.
func (m *Master) armAutoscaler(spec ServiceSpec) {
	if !spec.Autoscale.Enabled() {
		return
	}
	m.autos[spec.Name] = &autoscaler{pol: spec.Autoscale.Normalize()}
}

// AutoscaleTick runs one pass of the control loop over every armed
// service, in sorted order. The owner (hup.Testbed.EnableAutoscaling)
// drives it from the kernel at a fixed period. On a clustered master
// the tick follows the lease: ticking a deposed or halted master routes
// to the current leader, and a takeover in progress skips the tick.
func (m *Master) AutoscaleTick() {
	if lead := m.currentLeader(); lead != m {
		lead.AutoscaleTick()
		return
	}
	if m.halted || len(m.autos) == 0 {
		return
	}
	if m.cluster != nil && m.cluster.takingOver {
		return
	}
	names := make([]string, 0, len(m.autos))
	for n := range m.autos {
		names = append(names, n)
	}
	sort.Strings(names)
	now := m.net.Kernel().Now()
	for _, name := range names {
		a := m.autos[name]
		svc, ok := m.services[name]
		if !ok || svc.State != Active {
			continue
		}
		sig := m.autoscaleSignals(svc, a, now)
		dec := autoscale.Decide(a.pol, a.st, sig)
		a.lastDecision = fmt.Sprintf("%s: %s", dec.Dir, dec.Reason)
		a.lastAt = now
		switch dec.Dir {
		case autoscale.Up, autoscale.Down:
			a.lastBlock = ""
			m.autoscaleAct(svc, a, dec, sig)
		case autoscale.Blocked:
			// A persistent guard (at max under sustained load, inside a
			// cooldown) would journal and emit every tick; dedup on the
			// reason until the verdict changes.
			if a.lastBlock == dec.Reason {
				continue
			}
			a.lastBlock = dec.Reason
			a.st.Blocked++
			m.journal("autoscale-blocked", jAutoscale{
				Service: name, Dir: "blocked", From: sig.Capacity,
				To: dec.Target, Reason: dec.Reason, AtNs: int64(now),
			})
			m.autoBlockedCtr.Inc()
			m.emit(EventAutoscale, name, "", "blocked: "+dec.Reason)
			m.flog.Warn("autoscale blocked",
				telemetry.L("service", name),
				telemetry.L("reason", dec.Reason))
		default:
			a.lastBlock = ""
		}
	}
}

// autoscaleSignals gathers one tick's view of a service's load from the
// platform's existing instruments, advancing the per-controller taps.
func (m *Master) autoscaleSignals(svc *Service, a *autoscaler, now sim.Time) autoscale.Signals {
	sig := autoscale.Signals{At: now, Capacity: svc.TotalCapacity()}
	if m.acct != nil {
		if ls, ok := m.acct.Signals(svc.Spec.Name); ok {
			if ls.ReservedMHz > 0 {
				sig.Utilization = ls.RecentMHz / ls.ReservedMHz
			}
			sig.FastBurn = ls.FastBurn
			sig.SlowBurn = ls.SlowBurn
			sig.Violating = ls.Violating
		}
	}
	if sw := svc.Switch; sw != nil {
		d := sw.Dropped()
		sig.DropDelta = int64(d - a.prevDropped)
		a.prevDropped = d
	}
	if m.reqTraces != nil {
		s := m.reqTraces.Collector(svc.Spec.Name).RetainedSlow()
		sig.SlowTraceDelta = s - a.prevSlow
		a.prevSlow = s
	}
	return sig
}

// autoscaleAct commits one scale decision: mark it pending with the
// absolute target, journal it, then drive the resize. The journal append
// happens strictly before any daemon command, so a crash in between
// leaves a durable pending record the next leader re-issues.
func (m *Master) autoscaleAct(svc *Service, a *autoscaler, dec autoscale.Decision, sig autoscale.Signals) {
	name := svc.Spec.Name
	dir := dec.Dir.String()
	from := sig.Capacity
	a.st.Pending = true
	a.st.PendingTarget = dec.Target
	a.st.PendingDir = dir
	m.journal("autoscale-decision", jAutoscale{
		Service: name, Dir: dir, From: from, To: dec.Target,
		Reason: dec.Reason, AtNs: int64(sig.At),
	})
	sp := m.tracer.StartRoot("autoscale.resize",
		telemetry.L("service", name), telemetry.L("direction", dir))
	sp.Annotate("from", itoa(from))
	sp.Annotate("to", itoa(dec.Target))
	sp.Annotate("reason", dec.Reason)
	m.emit(EventAutoscale, name, "",
		fmt.Sprintf("%s %d -> %d: %s", dir, from, dec.Target, dec.Reason))
	m.flog.WithTrace(sp.TraceID()).Info("autoscale resize",
		telemetry.L("service", name),
		telemetry.L("direction", dir),
		telemetry.L("from", itoa(from)),
		telemetry.L("to", itoa(dec.Target)),
		telemetry.L("reason", dec.Reason))
	m.ResizeService(name, dec.Target, func(*Service) {
		sp.EndSpan()
		m.autoscaleDone(name, dir, dec.Target, true, "")
	}, func(err error) {
		sp.Fail(err)
		m.autoscaleDone(name, dir, dec.Target, false, err.Error())
	})
}

// autoscaleDone seals one resize: clear the pending marker, stamp the
// direction's cooldown clock, count the move, then journal the
// completion. A failed resize still stamps the clock — the cooldown doubles
// as retry backoff — and counts as blocked. Completion callbacks from
// a crashed or deposed leader are discarded: the journal holds the
// pending decision and the new leader re-issues it itself.
func (m *Master) autoscaleDone(name, dir string, target int, ok bool, detail string) {
	if m.halted {
		return
	}
	if m.cluster != nil && m.cluster.leader != m {
		return
	}
	a := m.autos[name]
	if a == nil {
		return // torn down while the resize was in flight
	}
	now := m.net.Kernel().Now()
	a.st.Pending = false
	a.st.PendingTarget = 0
	a.st.PendingDir = ""
	if dir == "up" {
		a.st.LastUp = now
	} else {
		a.st.LastDown = now
	}
	switch {
	case !ok:
		a.st.Blocked++
		m.autoBlockedCtr.Inc()
	case dir == "up":
		a.st.Ups++
		m.autoUpCtr.Inc()
	default:
		a.st.Downs++
		m.autoDownCtr.Inc()
	}
	m.journal("autoscale-done", jAutoscale{
		Service: name, Dir: dir, To: target, AtNs: int64(now), OK: ok,
	})
	if ok {
		m.emit(EventAutoscale, name, "", fmt.Sprintf("%s to %d complete", dir, target))
		return
	}
	m.emit(EventAutoscale, name, "", fmt.Sprintf("%s to %d failed: %s", dir, target, detail))
	m.flog.Warn("autoscale resize failed",
		telemetry.L("service", name),
		telemetry.L("error", detail))
}

// reissuePendingResizes re-drives every journaled-but-incomplete resize
// after a takeover. The journaled target is absolute, so if the old
// leader's commands already took effect the resize completes as a
// no-op; if they never reached the daemons it runs now. Either way
// exactly one autoscale-done follows each pending decision.
func (m *Master) reissuePendingResizes() {
	names := make([]string, 0, len(m.autos))
	for n := range m.autos {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		a := m.autos[name]
		if !a.st.Pending {
			continue
		}
		name, dir, target := name, a.st.PendingDir, a.st.PendingTarget
		m.emit(EventAutoscale, name, "",
			fmt.Sprintf("re-issuing pending %s to %d after failover", dir, target))
		m.ResizeService(name, target, func(*Service) {
			m.autoscaleDone(name, dir, target, true, "")
		}, func(err error) {
			m.autoscaleDone(name, dir, target, false, err.Error())
		})
	}
}

// AutoscalerView is one service's controller state as exposed on
// GET /autoscale and sodactl autoscale.
type AutoscalerView struct {
	Service  string `json:"service"`
	Policy   string `json:"policy"`
	Capacity int    `json:"capacity"`
	Min      int    `json:"min"`
	Max      int    `json:"max"`

	Ups     uint64 `json:"ups"`
	Downs   uint64 `json:"downs"`
	Blocked uint64 `json:"blocked"`

	Pending       bool   `json:"pending,omitempty"`
	PendingTarget int    `json:"pending_target,omitempty"`
	PendingDir    string `json:"pending_dir,omitempty"`

	LastUpSec   float64 `json:"last_up_sec,omitempty"`
	LastDownSec float64 `json:"last_down_sec,omitempty"`

	LastDecision    string  `json:"last_decision,omitempty"`
	LastDecisionSec float64 `json:"last_decision_sec,omitempty"`
}

// AutoscaleReport returns every armed service's controller state,
// sorted by service name.
func (m *Master) AutoscaleReport() []AutoscalerView {
	names := make([]string, 0, len(m.autos))
	for n := range m.autos {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]AutoscalerView, 0, len(names))
	for _, name := range names {
		a := m.autos[name]
		v := AutoscalerView{
			Service:         name,
			Policy:          a.pol.String(),
			Min:             a.pol.Min,
			Max:             a.pol.Max,
			Ups:             a.st.Ups,
			Downs:           a.st.Downs,
			Blocked:         a.st.Blocked,
			Pending:         a.st.Pending,
			PendingTarget:   a.st.PendingTarget,
			PendingDir:      a.st.PendingDir,
			LastUpSec:       a.st.LastUp.Seconds(),
			LastDownSec:     a.st.LastDown.Seconds(),
			LastDecision:    a.lastDecision,
			LastDecisionSec: a.lastAt.Seconds(),
		}
		if svc, ok := m.services[name]; ok {
			v.Capacity = svc.TotalCapacity()
		}
		out = append(out, v)
	}
	return out
}
