package soda

import (
	"fmt"

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
//   - Every state change is committed before acting: a decision commits
//     autoscale-decision (marking the resize pending, with an *absolute*
//     target) before any daemon sees a command, and the completion
//     commits autoscale-done. A warm standby therefore
//     reconstructs cooldown clocks, counters, and the pending resize
//     exactly; after takeover it re-issues any pending resize to its
//     absolute target, which is idempotent — a resize that already took
//     effect completes as a no-op — so a failover can neither
//     double-scale nor lose a resize.
//   - The resize itself is epoch-fenced like every mutation: a deposed
//     leader's in-flight commands die at the daemons, and its
//     completion callbacks are discarded (see autoscaleDone).

// autoscaler is one armed controller's live-only memory: signal taps
// and event dedup. The policy rides in the service's committed spec and
// the runtime state (cooldown clocks, move counters, pending resize) is
// the state's; replay folds records rather than re-running decision
// logic, so the Blocked counter advances exactly when a record was
// committed, and these taps resetting on failover costs at most one
// duplicate blocked event.
type autoscaler struct {
	prevDropped int
	prevSlow    uint64
	lastBlock   string

	// lastDecision and lastAt describe the most recent tick's verdict,
	// for the /autoscale surface.
	lastDecision string
	lastAt       sim.Time
}

// taps returns the named service's controller memory, made fresh on
// the first tick after admission or a takeover.
func (m *Master) taps(name string) *autoscaler {
	a := m.autos[name]
	if a == nil {
		a = &autoscaler{}
		m.autos[name] = a
	}
	return a
}

// armed returns the names of the services with an armed autoscaler,
// sorted.
func (m *Master) armed() []string {
	names := make([]string, 0, len(m.state.Autoscalers))
	for _, a := range m.state.Autoscalers {
		names = append(names, a.Service)
	}
	return names
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
	if m.halted || len(m.state.Autoscalers) == 0 {
		return
	}
	if m.cluster != nil && m.cluster.takingOver {
		return
	}
	now := m.net.Kernel().Now()
	for _, name := range m.armed() {
		svc, ok := m.services[name]
		if !ok || svc.State() != Active {
			continue
		}
		a := m.taps(name)
		sig := m.autoscaleSignals(svc, a, now)
		dec := autoscale.Decide(svc.record().Autoscale, *m.state.autoscaler(name), sig)
		a.lastDecision = fmt.Sprintf("%s: %s", dec.Dir, dec.Reason)
		a.lastAt = now
		switch dec.Dir {
		case autoscale.Up, autoscale.Down:
			a.lastBlock = ""
			m.autoscaleAct(svc, dec, sig)
		case autoscale.Blocked:
			// A persistent guard (at max under sustained load, inside a
			// cooldown) would journal and emit every tick; dedup on the
			// reason until the verdict changes.
			if a.lastBlock == dec.Reason {
				continue
			}
			a.lastBlock = dec.Reason
			m.commit("autoscale-blocked", jAutoscale{
				Service: name, Dir: "blocked", From: sig.Capacity,
				To: dec.Target, Reason: dec.Reason, AtNs: int64(now),
			})
			m.autoBlockedCtr.Inc()
			m.emit(EventAutoscale, 0, name, "", "blocked: "+dec.Reason)
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

// autoscaleAct commits one scale decision — pending, with the absolute
// target — then drives the resize. The commit happens strictly before
// any daemon command, so a crash in between leaves a durable pending
// record the next leader re-issues.
func (m *Master) autoscaleAct(svc *Service, dec autoscale.Decision, sig autoscale.Signals) {
	name := svc.Spec.Name
	dir := dec.Dir.String()
	from := sig.Capacity
	m.commit("autoscale-decision", jAutoscale{
		Service: name, Dir: dir, From: from, To: dec.Target,
		Reason: dec.Reason, AtNs: int64(sig.At),
	})
	sp := m.tracer.StartRoot("autoscale.resize",
		telemetry.L("service", name), telemetry.L("direction", dir))
	sp.Annotate("from", itoa(from))
	sp.Annotate("to", itoa(dec.Target))
	sp.Annotate("reason", dec.Reason)
	m.emit(EventAutoscale, sp.TraceID(), name, "",
		fmt.Sprintf("%s %d -> %d: %s", dir, from, dec.Target, dec.Reason))
	m.ResizeService(name, dec.Target, func(*Service) {
		sp.EndSpan()
		m.autoscaleDone(name, dir, dec.Target, sp.TraceID(), nil)
	}, func(err error) {
		sp.Fail(err)
		m.autoscaleDone(name, dir, dec.Target, sp.TraceID(), err)
	})
}

// autoscaleDone seals one resize by committing autoscale-done, which
// clears the pending marker, stamps the direction's cooldown clock and
// counts the move (a failure, err != nil, as blocked); trace is the
// resize's trace, or 0 for a re-issued one. Completion callbacks from a
// crashed or deposed leader are discarded: the journal holds the pending
// decision and the new leader re-issues it itself.
func (m *Master) autoscaleDone(name, dir string, target int, trace uint64, err error) {
	if m.halted {
		return
	}
	if m.cluster != nil && m.cluster.leader != m {
		return
	}
	if m.state.autoscaler(name) == nil {
		return // torn down while the resize was in flight
	}
	now := m.net.Kernel().Now()
	ok := err == nil
	switch {
	case !ok:
		m.autoBlockedCtr.Inc()
	case dir == "up":
		m.autoUpCtr.Inc()
	default:
		m.autoDownCtr.Inc()
	}
	m.commit("autoscale-done", jAutoscale{
		Service: name, Dir: dir, To: target, AtNs: int64(now), OK: ok,
	})
	if ok {
		m.emit(EventAutoscale, trace, name, "", fmt.Sprintf("%s to %d complete", dir, target))
		return
	}
	m.emit(EventAutoscale, trace, name, "", fmt.Sprintf("%s to %d failed: %v", dir, target, err))
}

// reissuePendingResizes re-drives every journaled-but-incomplete resize
// after a takeover. The journaled target is absolute, so if the old
// leader's commands already took effect the resize completes as a
// no-op; if they never reached the daemons it runs now. Either way
// exactly one autoscale-done follows each pending decision.
func (m *Master) reissuePendingResizes() {
	for _, name := range m.armed() {
		a := m.state.autoscaler(name)
		if !a.Pending {
			continue
		}
		name, dir, target := name, a.PendingDir, a.PendingTarget
		m.emit(EventAutoscale, 0, name, "",
			fmt.Sprintf("re-issuing pending %s to %d after failover", dir, target))
		m.ResizeService(name, target, func(*Service) {
			m.autoscaleDone(name, dir, target, 0, nil)
		}, func(err error) {
			m.autoscaleDone(name, dir, target, 0, err)
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
	out := make([]AutoscalerView, 0, len(m.state.Autoscalers))
	for _, as := range m.state.Autoscalers {
		name := as.Service
		pol := m.state.service(name).Autoscale
		v := AutoscalerView{
			Service:       name,
			Policy:        pol.String(),
			Min:           pol.Min,
			Max:           pol.Max,
			Ups:           as.Ups,
			Downs:         as.Downs,
			Blocked:       as.Blocked,
			Pending:       as.Pending,
			PendingTarget: as.PendingTarget,
			PendingDir:    as.PendingDir,
			LastUpSec:     as.LastUp.Seconds(),
			LastDownSec:   as.LastDown.Seconds(),
		}
		if a := m.autos[name]; a != nil {
			v.LastDecision, v.LastDecisionSec = a.lastDecision, a.lastAt.Seconds()
		}
		if svc, ok := m.services[name]; ok {
			v.Capacity = svc.TotalCapacity()
		}
		out = append(out, v)
	}
	return out
}
