package exp

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"repro/internal/appsvc"
	"repro/internal/chaos"
	"repro/internal/hostos"
	"repro/internal/hup"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/soda"
	"repro/internal/svcswitch"
	"repro/internal/workload"
)

// FailoverResult is the control-plane HA experiment: the leader Master is
// crash-stopped mid-run, the warm standby detects the missed lease beats
// and takes over, and the run measures what that costs — journal-replay
// fidelity, control-plane MTTR, daemon resynchronization, and (the point
// of the service-switch design) zero dropped data-plane requests. All
// fields are JSON-tagged so sodabench -failover can emit the run as a
// machine-readable report (BENCH_failover.json in CI).
type FailoverResult struct {
	Seed           uint64  `json:"seed"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	CrashAtS       float64 `json:"crash_at_s"`
	// MTTRS is leader crash → takeover complete (standby leading, every
	// daemon resynchronized). Negative means takeover never completed.
	MTTRS float64 `json:"mttr_s"`
	// Epoch after takeover (the primary led at 1).
	Epoch uint64 `json:"epoch"`
	// Resynced daemons out of DaemonCount re-registered with the new
	// leader and reported their live guests.
	Resynced    int `json:"resynced"`
	DaemonCount int `json:"daemon_count"`
	// DigestMatch: replaying the journal as it stood at the crash
	// instant reconstructs the pre-crash Master state byte-for-byte.
	DigestMatch     bool   `json:"digest_match"`
	PreCrashDigest  string `json:"pre_crash_digest"`
	ReplayedDigest  string `json:"replayed_digest"`
	ReplayRecords   int    `json:"replay_records"`
	ReplayTruncated bool   `json:"replay_truncated"`
	// TrackerMatch: the new leader's chunk holder map, rebuilt purely
	// from daemon resync announces, matches the pre-crash occupancy.
	TrackerMatch bool `json:"tracker_match"`
	// Client-side request accounting across the whole run. Dropped is
	// switch-refused requests and must be zero: the service switch keeps
	// routing while the control plane is headless.
	Issued    int `json:"issued"`
	Completed int `json:"completed"`
	Timeouts  int `json:"timeouts"`
	Errors    int `json:"errors"`
	Dropped   int `json:"dropped"`
	// RoutedDuringOutage counts requests completed in the second after
	// the crash — the window in which no Master leads.
	RoutedDuringOutage int `json:"routed_during_outage"`
	// PostCreateOK: the new leader admitted a fresh service, end to end
	// through the Agent, after the failover.
	PostCreateOK bool `json:"post_create_ok"`
	// Incidents counts flight-recorder bundles sealed for the master
	// death and the takeover.
	Incidents   int      `json:"incidents"`
	IncidentIDs []string `json:"incident_ids,omitempty"`
	// EventSeq is the control-plane event sequence; FaultLog the
	// injector's history. Both must be identical across same-seed runs.
	EventSeq []string `json:"event_seq"`
	FaultLog []string `json:"fault_log"`
	// FinalDigest / JournalDigest fingerprint the end-of-run state and
	// journal bytes; compared across same-seed runs.
	FinalDigest   string `json:"final_digest"`
	JournalDigest string `json:"journal_digest"`
	JournalBytes  int    `json:"journal_bytes"`
	// Deterministic reports whether a second same-seed run reproduced
	// the failover timeline, journal, and state digests exactly.
	Deterministic bool `json:"deterministic"`
}

// failoverHA is the tight HA tuning the experiment runs under: 100 ms
// lease beats, takeover after 4 missed, 50 ms resync spread.
func failoverHA() soda.HAConfig {
	return soda.HAConfig{
		BeatEvery:   100 * sim.Millisecond,
		ResyncDelay: 50 * sim.Millisecond,
	}
}

// RunFailover executes the failover experiment twice with the same
// seed — the second run only to verify the takeover timeline, journal,
// and digests are bit-identical — and returns the first run's
// measurements. sodabench runs it at seed 1 for 20 virtual seconds.
func RunFailover(seed uint64, total sim.Duration) (*FailoverResult, error) {
	if total < 5*sim.Second {
		return nil, fmt.Errorf("failover: run of %v too short to fit takeover and resync", total)
	}
	res, err := failoverRun(seed, total)
	if err != nil {
		return nil, err
	}
	rerun, err := failoverRun(seed, total)
	if err != nil {
		return nil, err
	}
	res.Deterministic = eqStrings(res.EventSeq, rerun.EventSeq) &&
		eqStrings(res.FaultLog, rerun.FaultLog) &&
		res.FinalDigest == rerun.FinalDigest &&
		res.JournalDigest == rerun.JournalDigest &&
		res.MTTRS == rerun.MTTRS
	return res, nil
}

// failoverRun performs one measured run.
func failoverRun(seed uint64, total sim.Duration) (*FailoverResult, error) {
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
	// Chunked image distribution so the takeover also has to rebuild the
	// holder map from daemon announces.
	tb.EnableChunkDistribution(soda.ChunkDistConfig{})
	if _, err := tb.EnableHA(failoverHA()); err != nil {
		return nil, err
	}
	inj := tb.EnableChaos(seed)
	// Black-box flight recorder: the leader death and the takeover must
	// each auto-capture an incident bundle.
	rec, _ := tb.EnableFlightRecorder()

	img := hup.WebContentImage("web", 8)
	if err := tb.Publish(img); err != nil {
		return nil, err
	}
	img2 := hup.WebContentImage("web2", 8)
	if err := tb.Publish(img2); err != nil {
		return nil, err
	}
	wd := hup.NewWebDeployment(tb, appsvc.DefaultWebParams(64))
	svc, err := tb.CreateService("secret", soda.ServiceSpec{
		Name:         "web",
		ImageName:    img.Name,
		Repository:   hup.RepoIP,
		Requirement:  soda.Requirement{N: 3, M: defaultM()},
		GuestProfile: img.SystemServices,
		Behavior:     wd.Behavior(),
	})
	if err != nil {
		return nil, err
	}

	res := &FailoverResult{
		Seed:           seed,
		VirtualSeconds: total.Seconds(),
		DaemonCount:    len(tb.Daemons),
		MTTRS:          -1,
	}

	t0 := tb.K.Now() // creation already consumed virtual time
	crashAt := sim.Duration(float64(total) * 0.35)
	crashTime := t0.Add(crashAt)
	res.CrashAtS = crashAt.Seconds()

	tb.Master.Observe(func(e soda.Event) {
		switch e.Kind {
		case soda.EventMasterDown, soda.EventFailover, soda.EventDaemonResync:
			res.EventSeq = append(res.EventSeq, e.String())
		}
	})

	// Data-plane accounting: the switch must refuse nothing while the
	// control plane is headless, and requests must keep completing in
	// the outage window between crash and takeover.
	outageHi := crashTime.Add(sim.Second)
	svc.Switch.OnTrace(func(tr svcswitch.Trace) {
		if tr.Dropped {
			res.Dropped++
			return
		}
		c := tr.Completed
		if !c.Before(crashTime) && c.Before(outageHi) {
			res.RoutedDuringOutage++
		}
	})

	inj.Schedule(chaos.Fault{At: crashAt, Kind: chaos.MasterCrash})
	inj.Arm()

	// Freeze the crash-instant evidence 10 ms after the halt (the halted
	// leader's state and the journal cannot change until the takeover,
	// 400 ms later, appends its own records).
	var crashJournal []byte
	var preTracker string
	tb.K.After(crashAt+10*sim.Millisecond, func() {
		res.PreCrashDigest = tb.Master.StateDigest()
		preTracker = tb.Master.TrackerDigest()
		crashJournal = append([]byte(nil), tb.Cluster.Journal().Bytes()...)
	})

	gen := workload.NewGenerator(tb.K, hup.SwitchTarget{Switch: svc.Switch}, tb.AddClient(), tb.RNG.Split())
	gen.Timeout = sim.Second
	gen.RunClosedLoop(16, 20*sim.Millisecond)
	tb.K.RunUntil(t0.Add(total))
	gen.Stop()
	tb.K.RunUntil(t0.Add(total + 2*sim.Second)) // drain in-flight requests

	res.Issued, res.Completed = gen.Issued, gen.Completed
	res.Timeouts, res.Errors = gen.Timeouts, gen.Errors

	if fos := tb.Cluster.Failovers(); len(fos) > 0 {
		fo := fos[0]
		res.MTTRS = fo.MTTR.Seconds()
		res.Epoch = fo.Epoch
		res.Resynced = fo.Resynced
	}
	var rep journal.ReplayReport
	res.ReplayedDigest, rep = soda.ReplayDigest(crashJournal)
	res.ReplayRecords, res.ReplayTruncated = rep.Records, rep.Truncated
	res.DigestMatch = res.PreCrashDigest != "" && res.ReplayedDigest == res.PreCrashDigest
	res.TrackerMatch = preTracker != "" && tb.Cluster.Leader().TrackerDigest() == preTracker

	// The new leader must admit fresh work end to end through the Agent.
	wd2 := hup.NewWebDeployment(tb, appsvc.DefaultWebParams(64))
	svc2, err := tb.CreateService("secret", soda.ServiceSpec{
		Name:         "web2",
		ImageName:    img2.Name,
		Repository:   hup.RepoIP,
		Requirement:  soda.Requirement{N: 1, M: defaultM()},
		GuestProfile: img2.SystemServices,
		Behavior:     wd2.Behavior(),
	})
	res.PostCreateOK = err == nil && svc2 != nil && svc2.State() == soda.Active

	for _, r := range inj.History() {
		res.FaultLog = append(res.FaultLog, r.String())
	}
	rec.SealAll()
	for _, inc := range rec.Incidents() {
		if inc.Open {
			continue
		}
		if inc.Trigger == "master-down" || inc.Trigger == "failover" {
			res.Incidents++
			res.IncidentIDs = append(res.IncidentIDs, inc.ID)
		}
	}

	res.FinalDigest = tb.Cluster.Leader().StateDigest()
	jb := tb.Cluster.Journal().Bytes()
	res.JournalBytes = len(jb)
	res.JournalDigest = fmt.Sprintf("%x", sha256.Sum256(jb))
	return res, nil
}

// Title implements Result.
func (*FailoverResult) Title() string {
	return "Control-plane HA: leader crash mid-run — journal replay, warm-standby takeover, zero dropped requests"
}

// Render implements Result.
func (r *FailoverResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title() + "\n\n")
	fmt.Fprintf(&b, "  seed %d, %.0fs virtual; leader crash-stopped at %.1fs\n",
		r.Seed, r.VirtualSeconds, r.CrashAtS)
	fmt.Fprintf(&b, "  takeover: MTTR %.3fs, epoch %d, %d/%d daemon(s) resynchronized\n",
		r.MTTRS, r.Epoch, r.Resynced, r.DaemonCount)
	fmt.Fprintf(&b, "  journal: %d record(s) replayed, digest %.12s… (pre-crash %.12s…)\n",
		r.ReplayRecords, r.ReplayedDigest, r.PreCrashDigest)
	fmt.Fprintf(&b, "  clients: %d issued, %d completed, %d timed out, %d errors, %d dropped\n",
		r.Issued, r.Completed, r.Timeouts, r.Errors, r.Dropped)
	fmt.Fprintf(&b, "  %d request(s) completed during the headless window\n\n", r.RoutedDuringOutage)
	for _, e := range r.EventSeq {
		b.WriteString("  " + e + "\n")
	}
	b.WriteString("\n")
	b.WriteString(shapeCheck("warm standby took over (MTTR ≤ 5s virtual)", r.MTTRS >= 0 && r.MTTRS <= 5) + "\n")
	b.WriteString(shapeCheck("epoch advanced to 2", r.Epoch == 2) + "\n")
	b.WriteString(shapeCheck("every daemon re-registered with the new leader", r.Resynced == r.DaemonCount) + "\n")
	b.WriteString(shapeCheck("journal replay reconstructs pre-crash state byte-for-byte", r.DigestMatch && !r.ReplayTruncated) + "\n")
	b.WriteString(shapeCheck("chunk holder map rebuilt from daemon announces matches pre-crash", r.TrackerMatch) + "\n")
	b.WriteString(shapeCheck("zero data-plane requests dropped", r.Dropped == 0) + "\n")
	b.WriteString(shapeCheck("requests kept completing while no Master led", r.RoutedDuringOutage >= 1) + "\n")
	b.WriteString(shapeCheck("new leader admits fresh services", r.PostCreateOK) + "\n")
	fmt.Fprintf(&b, "  flight recorder: %d incident bundle(s) %v\n", r.Incidents, r.IncidentIDs)
	b.WriteString(shapeCheck("flight recorder captured the leader death and the takeover", r.Incidents >= 2) + "\n")
	b.WriteString(shapeCheck("same seed reproduces the identical takeover timeline and digests", r.Deterministic) + "\n")
	return b.String()
}
