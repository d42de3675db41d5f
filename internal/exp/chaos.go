package exp

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/accounting"
	"repro/internal/appsvc"
	"repro/internal/chaos"
	"repro/internal/flight"
	"repro/internal/hostos"
	"repro/internal/hup"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/soda"
	"repro/internal/svcswitch"
	"repro/internal/workload"
)

// ChaosResult is the fault-lifecycle experiment: a scripted host crash
// mid-run, the Master's detection and recovery, and the throughput cost.
// All fields are JSON-tagged so sodabench -chaos can emit the run as a
// machine-readable report (BENCH_chaos.json in CI).
type ChaosResult struct {
	Seed           uint64  `json:"seed"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	// CrashHost is the HUP host crash-stopped at CrashAtS.
	CrashHost string  `json:"crash_host"`
	CrashAtS  float64 `json:"crash_at_s"`
	// DetectS is crash → EventHostDead; MTTRS is detection → first
	// successful replacement. Negative means it never happened.
	DetectS float64 `json:"detect_s"`
	MTTRS   float64 `json:"mttr_s"`
	// PreRate and PostRate are completed requests per second in the
	// windows before the crash and after recovery settles.
	PreRate       float64 `json:"pre_rate_rps"`
	PostRate      float64 `json:"post_rate_rps"`
	RecoveryRatio float64 `json:"recovery_ratio"`
	// Client-side request accounting.
	Issued    int `json:"issued"`
	Completed int `json:"completed"`
	Timeouts  int `json:"timeouts"`
	Errors    int `json:"errors"`
	// Ejected counts passive-health ejections; DeadRouted counts
	// requests completed by a dead backend after detection plus one
	// probe interval (must be zero).
	Ejected    int `json:"ejected"`
	DeadRouted int `json:"dead_routed"`
	// Recoveries / RecoveryFailures count replacement outcomes.
	Recoveries       int `json:"recoveries"`
	RecoveryFailures int `json:"recovery_failures"`
	// FinalCapacity vs WantCapacity: machine instances after recovery.
	FinalCapacity int `json:"final_capacity"`
	WantCapacity  int `json:"want_capacity"`
	// EventSeq is the fault-lifecycle event sequence; FaultLog the
	// injector's history. Both must be identical across same-seed runs.
	EventSeq []string `json:"event_seq"`
	FaultLog []string `json:"fault_log"`
	// Incidents / IncidentIDs describe the flight recorder's automatic
	// captures; IncidentDigest is a SHA-256 over the sealed bundles'
	// JSON, compared across same-seed runs. IncidentSpansRecovery
	// reports that the host-dead bundle's records tell the whole story,
	// detection through recovery completion.
	Incidents             int      `json:"incidents"`
	IncidentIDs           []string `json:"incident_ids,omitempty"`
	IncidentDigest        string   `json:"incident_digest"`
	IncidentSpansRecovery bool     `json:"incident_spans_recovery"`
	// SLOIncidents counts sealed slo-violation bundles; SLOTraceCount
	// the retained slow request traces embedded across them; and
	// SLOTraceStagesOK that every embedded trace is genuinely slow
	// (KeptSlow) and carries per-stage nanosecond attribution.
	SLOIncidents     int  `json:"slo_incidents"`
	SLOTraceCount    int  `json:"slo_trace_count"`
	SLOTraceStagesOK bool `json:"slo_trace_stages_ok"`
	// SLOFirstS is crash → first SLO violation (negative: none after the
	// crash); SLOBeforeCrash counts violations raised before it. The
	// crash, not the load, must raise the violation: none before it, and
	// the first while the fault is still being repaired (before the
	// post-recovery throughput window opens).
	SLOFirstS      float64 `json:"slo_first_s"`
	SLOBeforeCrash int     `json:"slo_before_crash"`
	SLOWindowS     float64 `json:"slo_window_s"`
	// Deterministic reports whether a second same-seed run reproduced
	// EventSeq, FaultLog, and the incident bundles exactly.
	Deterministic bool `json:"deterministic"`
}

// olympia is the third HUP host of the chaos testbed — a second
// tacoma-class machine, so the service spreads over three hosts and a
// crash always leaves spare capacity somewhere.
func olympia() hostos.Spec {
	spec := hostos.Tacoma()
	spec.Name = "olympia"
	return spec
}

// chaosDetector is the fast tuning the experiment runs under: 100 ms
// heartbeats, suspect after 3 missed, confirm after 6, recovery retry
// every 500 ms, 3-strike ejection with 200 ms half-open probes.
func chaosDetector() soda.HealthConfig {
	return soda.HealthConfig{
		HeartbeatEvery: 100 * sim.Millisecond,
		SuspectAfter:   300 * sim.Millisecond,
		ConfirmAfter:   600 * sim.Millisecond,
		CheckEvery:     50 * sim.Millisecond,
		RetryRecovery:  500 * sim.Millisecond,
		EjectAfter:     3,
		ProbeAfter:     200 * sim.Millisecond,
	}
}

// RunChaos executes the fault-lifecycle experiment twice with the same
// seed — the second run only to verify the fault schedule and recovery
// event sequence are bit-identical — and returns the first run's
// measurements. sodabench runs it for 20 virtual seconds.
func RunChaos(seed uint64, total sim.Duration) (*ChaosResult, error) {
	if total < 3*sim.Second {
		return nil, fmt.Errorf("chaos: run of %v too short to fit detection and recovery", total)
	}
	res, err := chaosRun(seed, total)
	if err != nil {
		return nil, err
	}
	rerun, err := chaosRun(seed, total)
	if err != nil {
		return nil, err
	}
	res.Deterministic = eqStrings(res.EventSeq, rerun.EventSeq) && eqStrings(res.FaultLog, rerun.FaultLog) &&
		res.IncidentDigest == rerun.IncidentDigest
	return res, nil
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chaosRun performs one measured run.
func chaosRun(seed uint64, total sim.Duration) (*ChaosResult, error) {
	tb, err := hup.New(hup.Config{
		Hosts: []hostos.Spec{hostos.Seattle(), hostos.Tacoma(), olympia()},
		Seed:  seed,
	})
	if err != nil {
		return nil, err
	}
	if err := tb.Agent.RegisterASP("asp", "secret"); err != nil {
		return nil, err
	}
	tb.EnableSelfHealing(chaosDetector())
	inj := tb.EnableChaos(seed)
	// Black-box flight recorder: the host death must auto-capture an
	// incident bundle whose records span detection through recovery.
	rec, _ := tb.EnableFlightRecorder(hup.FlightOptions{})
	// SLO evaluation with seconds-scale burn windows so the crash's
	// latency burst raises a violation while this 20-virtual-second run
	// is still going (the SRE-default hours-scale pairs never would).
	tb.EnableAccounting(accounting.Options{
		Fast:        accounting.WindowPair{Short: 2 * time.Second, Long: 6 * time.Second, Threshold: 2},
		Slow:        accounting.WindowPair{Short: 6 * time.Second, Long: 12 * time.Second, Threshold: 1.5},
		EvalPeriod:  sim.Second,
		MinRequests: 20,
	})
	// Tail-sampled request traces: the slo-violation bundle below must
	// embed the violating service's retained slow traces with per-stage
	// attribution (the collector's slow threshold is the SLO target).
	tb.EnableRequestTracing(reqtrace.Config{})

	img := hup.WebContentImage("web", 8)
	if err := tb.Publish(img); err != nil {
		return nil, err
	}
	wd := hup.NewWebDeployment(tb, appsvc.DefaultWebParams(64))
	svc, err := tb.CreateService("secret", soda.ServiceSpec{
		Name:         "web",
		ImageName:    img.Name,
		Repository:   hup.RepoIP,
		Requirement:  soda.Requirement{N: 2, M: defaultM()},
		GuestProfile: img.SystemServices,
		Behavior:     wd.Behavior(),
		SLO:          svcswitch.SLO{LatencyTarget: 10 * time.Millisecond, LatencyQuantile: 0.99},
	})
	if err != nil {
		return nil, err
	}
	if len(svc.Nodes) < 2 {
		return nil, fmt.Errorf("chaos: service landed on %d node(s), need 2+ to crash a non-home host", len(svc.Nodes))
	}

	res := &ChaosResult{
		Seed:           seed,
		VirtualSeconds: total.Seconds(),
		WantCapacity:   svc.TotalCapacity(),
	}

	// Crash a non-home host: the switch keeps running, so detection and
	// re-routing — not switch loss — are what is measured.
	victim := svc.Nodes[1].HostName
	res.CrashHost = victim
	deadAddrs := make(map[string]bool)
	for _, n := range svc.Nodes {
		if n.HostName == victim {
			deadAddrs[fmt.Sprintf("%s:%d", n.IP, n.Port)] = true
		}
	}

	t0 := tb.K.Now() // creation already consumed virtual time
	crashAt := sim.Duration(float64(total) * 0.35)
	crashTime := t0.Add(crashAt)
	res.CrashAtS = crashAt.Seconds()
	probe := chaosDetector().ProbeAfter
	postLo := t0.Add(sim.Duration(float64(total) * 0.75))
	res.SLOFirstS, res.SLOWindowS = -1, postLo.Sub(crashTime).Seconds()

	var detectTime sim.Time
	tb.Master.Observe(func(e soda.Event) {
		if e.Kind == soda.EventSLOViolation {
			if e.At.Before(crashTime) {
				res.SLOBeforeCrash++
			} else if res.SLOFirstS < 0 {
				res.SLOFirstS = e.At.Sub(crashTime).Seconds()
			}
		}
		switch e.Kind {
		case soda.EventNodeFailed, soda.EventNodeRecovered, soda.EventHostSuspected,
			soda.EventHostDead, soda.EventHostAlive, soda.EventRecoveryFailed:
			res.EventSeq = append(res.EventSeq, e.String())
			if e.Kind == soda.EventHostDead && detectTime == 0 {
				detectTime = e.At
			}
		}
	})

	// Throughput windows: pre-fault [0.1·D, crash), post-recovery
	// [0.75·D, D). Completions are counted where they finish.
	preLo, preHi := t0.Add(total/10), crashTime
	postHi := t0.Add(total)
	var preCount, postCount int
	svc.Switch.OnTrace(func(tr svcswitch.Trace) {
		if tr.Dropped {
			return
		}
		c := tr.Completed
		if !c.Before(preLo) && c.Before(preHi) {
			preCount++
		}
		if !c.Before(postLo) && c.Before(postHi) {
			postCount++
		}
		if deadAddrs[tr.Backend] && detectTime > 0 && !c.Before(detectTime.Add(probe)) {
			res.DeadRouted++
		}
	})

	inj.Schedule(chaos.Fault{At: crashAt, Kind: chaos.HostCrash, Host: victim})
	inj.Arm()

	gen := workload.NewGenerator(tb.K, hup.SwitchTarget{Switch: svc.Switch}, tb.AddClient(), tb.RNG.Split())
	gen.Timeout = sim.Second
	// 40 closed-loop clients saturate the two-backend pool enough that
	// losing one pushes the tail past the 10ms/p99 SLO — light load hides
	// a crash entirely (the switch ejects and reroutes within a tick).
	// With 32 the burst sits at the 2x burn threshold, where whether it
	// trips the SLO depends on the seed. The shape check also wants no
	// violation before the crash, so the load alone cannot pass it.
	gen.RunClosedLoop(40, 20*sim.Millisecond)
	tb.K.RunUntil(t0.Add(total))
	gen.Stop()
	tb.K.RunUntil(t0.Add(total + 2*sim.Second)) // drain in-flight requests

	res.PreRate = float64(preCount) / preHi.Sub(preLo).Seconds()
	res.PostRate = float64(postCount) / postHi.Sub(postLo).Seconds()
	if res.PreRate > 0 {
		res.RecoveryRatio = res.PostRate / res.PreRate
	}
	res.Issued, res.Completed = gen.Issued, gen.Completed
	res.Timeouts, res.Errors = gen.Timeouts, gen.Errors
	res.Ejected = svc.Switch.EjectedTotal()
	res.FinalCapacity = svc.TotalCapacity()
	res.DetectS = -1
	if detectTime > 0 {
		res.DetectS = detectTime.Sub(crashTime).Seconds()
	}
	res.MTTRS = -1
	for _, r := range tb.Master.Recoveries() {
		if r.OK {
			res.Recoveries++
			if res.MTTRS < 0 {
				res.MTTRS = r.MTTR.Seconds()
			}
		} else {
			res.RecoveryFailures++
		}
	}
	for _, r := range inj.History() {
		res.FaultLog = append(res.FaultLog, r.String())
	}

	// Freeze any still-open incidents at this fixed virtual instant so
	// two same-seed runs digest identical bundles.
	rec.SealAll()
	var sealed []*flight.Incident
	for _, inc := range rec.Incidents() {
		if inc.Open {
			continue
		}
		sealed = append(sealed, inc)
		res.IncidentIDs = append(res.IncidentIDs, inc.ID)
		if inc.Trigger == "host-dead" && inc.HasRecord("host-dead") && inc.HasRecord("node-recovered") {
			res.IncidentSpansRecovery = true
		}
		if inc.Trigger == "slo-violation" {
			res.SLOIncidents++
			if res.SLOTraceCount == 0 {
				res.SLOTraceStagesOK = len(inc.Traces) > 0
			}
			for _, tr := range inc.Traces {
				res.SLOTraceCount++
				// Each embedded trace must be a genuinely slow request
				// with per-stage attribution that sums to its total.
				sum := tr.QueueNs + tr.RouteNs + tr.UpstreamNs + tr.ServeNs
				if tr.ID == 0 || tr.Why&reqtrace.KeptSlow == 0 || tr.TotalNs <= 0 || sum <= 0 || sum > tr.TotalNs {
					res.SLOTraceStagesOK = false
				}
			}
		}
	}
	res.Incidents = len(sealed)
	blob, err := json.Marshal(sealed)
	if err != nil {
		return nil, err
	}
	res.IncidentDigest = fmt.Sprintf("%x", sha256.Sum256(blob))
	return res, nil
}

// Title implements Result.
func (*ChaosResult) Title() string {
	return "Fault lifecycle: host crash mid-run — detection, self-healing recovery, throughput cost"
}

// sloFromCrash reports whether the crash, not the load, raised the SLO
// violations: none before it, and the first inside the repair window.
func (r *ChaosResult) sloFromCrash() bool {
	return r.SLOBeforeCrash == 0 && r.SLOFirstS >= 0 && r.SLOFirstS < r.SLOWindowS
}

// Render implements Result.
func (r *ChaosResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title() + "\n\n")
	fmt.Fprintf(&b, "  seed %d, %.0fs virtual; crash-stop %s at %.1fs\n",
		r.Seed, r.VirtualSeconds, r.CrashHost, r.CrashAtS)
	fmt.Fprintf(&b, "  detection %.2fs after crash; first recovery %.2fs after detection (%d ok, %d retried)\n",
		r.DetectS, r.MTTRS, r.Recoveries, r.RecoveryFailures)
	fmt.Fprintf(&b, "  throughput %.0f req/s pre-fault -> %.0f req/s post-recovery (ratio %.2f)\n",
		r.PreRate, r.PostRate, r.RecoveryRatio)
	fmt.Fprintf(&b, "  clients: %d issued, %d completed, %d timed out, %d errors\n",
		r.Issued, r.Completed, r.Timeouts, r.Errors)
	fmt.Fprintf(&b, "  switch: %d ejection(s), %d completion(s) by dead backends after detection\n",
		r.Ejected, r.DeadRouted)
	fmt.Fprintf(&b, "  capacity %d/%d machine instance(s) after recovery\n\n", r.FinalCapacity, r.WantCapacity)
	for _, e := range r.EventSeq {
		b.WriteString("  " + e + "\n")
	}
	b.WriteString("\n")
	b.WriteString(shapeCheck("host death detected by heartbeat deadline", r.DetectS >= 0) + "\n")
	b.WriteString(shapeCheck("replacement node primed on a surviving host", r.Recoveries >= 1) + "\n")
	b.WriteString(shapeCheck("switch ejected the dead backend", r.Ejected >= 1) + "\n")
	b.WriteString(shapeCheck("no requests served by dead backends after detection (+1 probe)", r.DeadRouted == 0) + "\n")
	b.WriteString(shapeCheck("post-fault throughput ≥ 90% of pre-fault", r.RecoveryRatio >= 0.9) + "\n")
	b.WriteString(shapeCheck("reserved capacity fully restored", r.FinalCapacity >= r.WantCapacity) + "\n")
	fmt.Fprintf(&b, "  flight recorder: %d incident bundle(s) %v, digest %.12s…\n\n",
		r.Incidents, r.IncidentIDs, r.IncidentDigest)
	b.WriteString(shapeCheck("flight recorder auto-captured the host death", r.Incidents >= 1) + "\n")
	b.WriteString(shapeCheck("host-dead bundle spans detection through recovery completion", r.IncidentSpansRecovery) + "\n")
	fmt.Fprintf(&b, "  slo-violation: %d bundle(s) embedding %d retained slow trace(s)\n",
		r.SLOIncidents, r.SLOTraceCount)
	b.WriteString(shapeCheck("crash latency burst raised an SLO-violation incident", r.SLOIncidents >= 1) + "\n")
	fmt.Fprintf(&b, "  slo-violation events: %d before the crash, first %.2fs after it\n",
		r.SLOBeforeCrash, r.SLOFirstS)
	b.WriteString(shapeCheck("no SLO violation before the crash; the first before recovery settles", r.sloFromCrash()) + "\n")
	b.WriteString(shapeCheck("slo-violation bundle embeds retained slow traces with per-stage attribution",
		r.SLOTraceCount >= 1 && r.SLOTraceStagesOK) + "\n")
	b.WriteString(shapeCheck("same seed reproduces the identical fault schedule, events, and incident bundles", r.Deterministic) + "\n")
	return b.String()
}
