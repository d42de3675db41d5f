package soda_test

import (
	"fmt"
	"testing"

	"repro/internal/accounting"
	"repro/internal/autoscale"
	"repro/internal/hostos"
	"repro/internal/hup"
	"repro/internal/image"
	"repro/internal/sim"
	"repro/internal/soda"
)

// Control-plane HA tests: journal replay fidelity, warm-standby
// takeover, epoch fencing of revived leaders, and same-seed
// determinism of the jittered heartbeat and failover timelines.

// fastHA is an HA configuration tight enough that a takeover completes
// within a couple of virtual seconds.
func fastHA() soda.HAConfig {
	return soda.HAConfig{
		BeatEvery:     100 * sim.Millisecond,
		TakeoverAfter: 400 * sim.Millisecond,
		CheckEvery:    50 * sim.Millisecond,
		ResyncDelay:   50 * sim.Millisecond,
	}
}

func haTestbed(t *testing.T, hosts []hostos.Spec) *hup.Testbed {
	t.Helper()
	tb, err := hup.New(hup.Config{Hosts: hosts, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("bio-institute", "genome-key"); err != nil {
		t.Fatal(err)
	}
	tb.EnableSelfHealing(fastDetector())
	if _, err := tb.EnableHA(fastHA()); err != nil {
		t.Fatal(err)
	}
	return tb
}

// runUntilFailover advances virtual time until the cluster's first
// takeover completes (or the deadline passes).
func runUntilFailover(t *testing.T, tb *hup.Testbed, deadline sim.Duration) soda.FailoverRecord {
	t.Helper()
	for waited := sim.Duration(0); waited < deadline; waited += 100 * sim.Millisecond {
		tb.K.RunFor(100 * sim.Millisecond)
		if fos := tb.Cluster.Failovers(); len(fos) > 0 {
			return fos[0]
		}
	}
	t.Fatal("no failover completed before the deadline")
	return soda.FailoverRecord{}
}

func TestJournalReplayDigestMatchesLive(t *testing.T) {
	tb := haTestbed(t, nil)
	specA, _ := webSpec(tb, t, "alpha", 2)
	if _, err := tb.CreateService("genome-key", specA); err != nil {
		t.Fatal(err)
	}
	specB, _ := webSpec(tb, t, "beta", 1)
	if _, err := tb.CreateService("genome-key", specB); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Resize("genome-key", "alpha", 3); err != nil {
		t.Fatal(err)
	}
	if err := tb.Teardown("genome-key", "beta"); err != nil {
		t.Fatal(err)
	}
	tb.K.RunFor(sim.Second)

	live := tb.Master.StateDigest()
	replayed, rep := soda.ReplayDigest(tb.Cluster.Journal().Bytes())
	if rep.Truncated {
		t.Fatalf("clean journal reported truncated: %s", rep.Reason)
	}
	if replayed != live {
		t.Fatalf("replayed digest %s != live digest %s after %d record(s)",
			replayed, live, rep.Records)
	}
}

func TestFailoverTakeover(t *testing.T) {
	tb := haTestbed(t, nil)
	spec, _ := webSpec(tb, t, "web", 3)
	svc, err := tb.CreateService("genome-key", spec)
	if err != nil {
		t.Fatal(err)
	}
	tb.K.RunFor(sim.Second)
	preDigest := tb.Master.StateDigest()
	preSwitch := svc.Switch
	preRouted := svc.Switch.Routed()
	preNodes := make(map[string]int, len(svc.Nodes))
	for _, n := range svc.Nodes {
		preNodes[n.NodeName] = n.Capacity
	}

	var down, over int
	tb.Master.Observe(func(e soda.Event) {
		switch e.Kind {
		case soda.EventMasterDown:
			down++
		case soda.EventFailover:
			over++
		}
	})
	tb.Cluster.HaltLeader()
	// The journal as it stood at the crash instant: replaying it must
	// reconstruct the pre-crash state byte-for-byte.
	crashJournal := append([]byte(nil), tb.Cluster.Journal().Bytes()...)
	fo := runUntilFailover(t, tb, 10*sim.Second)

	if got := tb.Cluster.Leader(); got != tb.Standby {
		t.Fatal("standby did not become leader")
	}
	if fo.Epoch != 2 || tb.Cluster.Epoch() != 2 {
		t.Fatalf("epoch = %d (record %d), want 2", tb.Cluster.Epoch(), fo.Epoch)
	}
	if fo.MTTR <= 0 || fo.MTTR > 5*sim.Second {
		t.Fatalf("control-plane MTTR = %v, want (0, 5s]", fo.MTTR)
	}
	if fo.Resynced != len(tb.Daemons) {
		t.Fatalf("resynced %d daemon(s), want %d", fo.Resynced, len(tb.Daemons))
	}
	if fo.Truncated {
		t.Fatal("replay of an uncorrupted journal reported truncation")
	}
	if down != 1 || over != 1 {
		t.Fatalf("events master-down=%d failover=%d, want 1/1", down, over)
	}

	// Replaying the crash-instant journal reconstructs the pre-crash
	// state exactly.
	if replayed, rep := soda.ReplayDigest(crashJournal); replayed != preDigest {
		t.Fatalf("replayed digest %s != pre-crash %s (%d record(s))",
			replayed, preDigest, rep.Records)
	}
	// The new leader reconstructed the same logical service (only the
	// epoch advanced) and adopted the very switch object clients were
	// routing through.
	lead := tb.Cluster.Leader()
	newSvc, ok := lead.Service("web")
	if !ok {
		t.Fatal("service lost across failover")
	}
	if len(newSvc.Nodes) != len(preNodes) {
		t.Fatalf("nodes = %d after failover, want %d", len(newSvc.Nodes), len(preNodes))
	}
	for _, n := range newSvc.Nodes {
		if cap, ok := preNodes[n.NodeName]; !ok || cap != n.Capacity {
			t.Fatalf("node %s capacity %d does not match pre-crash set %v",
				n.NodeName, n.Capacity, preNodes)
		}
		if n.Guest == nil || !n.Guest.Alive() {
			t.Fatalf("node %s has no live guest after resync", n.NodeName)
		}
	}
	if newSvc.Switch != preSwitch {
		t.Fatal("failover replaced the live switch instead of adopting it")
	}
	if newSvc.Switch.Routed() < preRouted {
		t.Fatal("switch routing counter went backwards")
	}

	// The new leader admits fresh work, reachable through the Agent.
	spec2, _ := webSpec(tb, t, "web2", 1)
	svc2, err := tb.CreateService("genome-key", spec2)
	if err != nil {
		t.Fatalf("post-failover creation failed: %v", err)
	}
	if svc2.State != soda.Active {
		t.Fatalf("post-failover service state = %v", svc2.State)
	}
}

func TestStaleEpochFenced(t *testing.T) {
	tb := haTestbed(t, nil)
	spec, _ := webSpec(tb, t, "web", 2)
	if _, err := tb.CreateService("genome-key", spec); err != nil {
		t.Fatal(err)
	}
	tb.Cluster.HaltLeader()
	runUntilFailover(t, tb, 10*sim.Second)

	for i, d := range tb.Daemons {
		if got := d.FenceEpoch(); got != 2 {
			t.Fatalf("daemon %d fence epoch = %d, want 2", i, got)
		}
	}

	// The old leader comes back from its crash-stop. It is fenced: its
	// commands carry epoch 1 and every daemon rejects them.
	tb.Master.Resume()
	preNodes := 0
	for _, d := range tb.Daemons {
		preNodes += d.Nodes()
	}
	spec2, _ := webSpec(tb, t, "stale", 1)
	var serr error
	done := false
	tb.Master.CreateService(spec2,
		func(*soda.Service) { done = true },
		func(err error) { serr, done = err, true })
	for !done && tb.K.Pending() > 0 {
		tb.K.RunFor(sim.Second)
	}
	if serr == nil {
		t.Fatal("fenced ex-leader created a service")
	}
	if _, ok := tb.Cluster.Leader().Service("stale"); ok {
		t.Fatal("stale service visible on the real leader")
	}
	// No daemon kept a node of the fenced attempt.
	postNodes := 0
	for _, d := range tb.Daemons {
		postNodes += d.Nodes()
	}
	if postNodes != preNodes {
		t.Fatalf("fenced attempt changed hosted nodes: %d -> %d", preNodes, postNodes)
	}
}

// TestTrackerRebuiltFromAnnounces is the chunk-tracker regression: after
// the Master fails over, the new leader's holder map — rebuilt purely
// from the daemons' resynchronization announces — must be identical to
// the pre-crash occupancy.
func TestTrackerRebuiltFromAnnounces(t *testing.T) {
	tb, err := hup.New(hup.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("bio-institute", "genome-key"); err != nil {
		t.Fatal(err)
	}
	tb.EnableSelfHealing(fastDetector())
	tb.EnableChunkDistribution(soda.ChunkDistConfig{})
	if _, err := tb.EnableHA(fastHA()); err != nil {
		t.Fatal(err)
	}
	spec, _ := webSpec(tb, t, "web", 3)
	if _, err := tb.CreateService("genome-key", spec); err != nil {
		t.Fatal(err)
	}
	tb.K.RunFor(sim.Second)
	pre := tb.Master.TrackerDigest()

	tb.Cluster.HaltLeader()
	runUntilFailover(t, tb, 10*sim.Second)
	tb.K.RunFor(sim.Second)

	if post := tb.Cluster.Leader().TrackerDigest(); post != pre {
		t.Fatalf("rebuilt tracker digest %s != pre-crash %s", post, pre)
	}
}

// TestHeartbeatJitterDeterministic runs the same seeded failover twice
// and demands byte-identical journals and state digests: the per-daemon
// heartbeat jitter and resync spread come from seeded streams, not from
// wall-clock or map order.
func TestHeartbeatJitterDeterministic(t *testing.T) {
	run := func() (string, []byte, soda.FailoverRecord) {
		tb := haTestbed(t, nil)
		spec, _ := webSpec(tb, t, "web", 3)
		if _, err := tb.CreateService("genome-key", spec); err != nil {
			t.Fatal(err)
		}
		tb.K.RunFor(sim.Second)
		tb.Cluster.HaltLeader()
		fo := runUntilFailover(t, tb, 10*sim.Second)
		tb.K.RunFor(sim.Second)
		return tb.Cluster.Leader().StateDigest(), tb.Cluster.Journal().Bytes(), fo
	}
	d1, j1, f1 := run()
	d2, j2, f2 := run()
	if d1 != d2 {
		t.Fatalf("same-seed state digests differ: %s vs %s", d1, d2)
	}
	if string(j1) != string(j2) {
		t.Fatalf("same-seed journals differ: %d vs %d bytes", len(j1), len(j2))
	}
	if f1.MTTR != f2.MTTR || f1.At != f2.At {
		t.Fatalf("same-seed failover timelines differ: %+v vs %+v", f1, f2)
	}
}

// TestJournalReplayMatchesLiveUnderCompaction runs a seeded create /
// resize / teardown stream, with autoscale ticks, while the journal
// compacts at several cadences, down to a snapshot after every record. It
// checks after every operation that replaying the journal reconstructs
// the live state. A record journaled before the mutation it describes
// lets a snapshot triggered by that record capture the state without it,
// and replay then loses the mutation.
func TestJournalReplayMatchesLiveUnderCompaction(t *testing.T) {
	for _, every := range []int{1, 2, 3, 5, 64} {
		t.Run(fmt.Sprintf("SnapshotEvery=%d", every), func(t *testing.T) {
			compactionStream(t, every, 107)
		})
	}
}

// compactionStream is one run of the compaction replay check.
func compactionStream(t *testing.T, snapshotEvery int, seed uint64) {
	hosts := make([]hostos.Spec, 8)
	for i := range hosts {
		s := hostos.Seattle()
		if i%2 == 1 {
			s = hostos.Tacoma()
		}
		s.Name = fmt.Sprintf("host-%02d", i)
		hosts[i] = s
	}
	tb, err := hup.New(hup.Config{Hosts: hosts, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("asp", "secret"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.EnableHA(soda.HAConfig{SnapshotEvery: snapshotEvery}); err != nil {
		t.Fatal(err)
	}
	tb.EnableChunkDistribution(soda.ChunkDistConfig{})
	tb.EnableAccounting(accounting.Options{})
	var imgs []*image.Image
	for i, datasetMB := range []int{0, 2} {
		img := hup.WebContentImage(fmt.Sprintf("img-%d", i), datasetMB)
		if err := tb.Publish(img); err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}

	rng := sim.NewRNG(seed)
	m := soda.MachineConfig{CPUMHz: 64, MemoryMB: 64, DiskMB: 128, BandwidthMbps: 1}
	var live []string           // alive services, in creation order
	manual := map[string]bool{} // alive services without an autoscale policy
	next := 0
	for i := 0; i < 150; i++ {
		var op string
		var err error
		switch r := rng.Float64(); {
		case i%10 == 9:
			op = "autoscale tick"
			tb.Master.AutoscaleTick()
			for w := 0; autoscalePending(tb.Master) && w < 600; w++ {
				tb.K.RunFor(100 * sim.Millisecond)
			}
		case len(live) < 3 || (len(live) < 10 && r < 0.45):
			name := fmt.Sprintf("svc-%03d", next)
			img := imgs[rng.Intn(len(imgs))]
			spec := soda.ServiceSpec{
				Name: name, ImageName: img.Name, Repository: hup.RepoIP,
				Requirement:  soda.Requirement{N: 1 + rng.Intn(3), M: m},
				GuestProfile: img.SystemServices,
			}
			if next%3 == 0 {
				spec.Requirement.N = 3
				spec.Autoscale = autoscale.Policy{
					Min: 1, Max: 3,
					TargetUtilization: 0.5, HighWater: 0.7, LowWater: 0.2,
					MaxStep: 1, UpCooldown: 2 * sim.Second, DownCooldown: 5 * sim.Second,
				}
			}
			next++
			op = "create " + name
			if _, err = tb.CreateService("secret", spec); err == nil {
				live = append(live, name)
				manual[name] = !spec.Autoscale.Enabled()
			}
		case r < 0.75:
			name := live[rng.Intn(len(live))]
			if !manual[name] {
				op = "run " + name
				tb.K.RunFor(sim.Second)
				break
			}
			n := 1 + rng.Intn(3)
			op = fmt.Sprintf("resize %s to %d", name, n)
			_, err = tb.Resize("secret", name, n)
		default:
			j := rng.Intn(len(live))
			op = "teardown " + live[j]
			if err = tb.Teardown("secret", live[j]); err == nil {
				delete(manual, live[j])
				live = append(live[:j], live[j+1:]...)
			}
		}
		if err != nil {
			t.Fatalf("op %d (%s): %v", i, op, err)
		}
		liveDigest := tb.Master.StateDigest()
		replayed, rep := soda.ReplayDigest(tb.Cluster.Journal().Bytes())
		if rep.Truncated {
			t.Fatalf("op %d (%s): clean journal reported truncated: %s", i, op, rep.Reason)
		}
		if replayed != liveDigest {
			t.Fatalf("op %d (%s): replayed digest %.16s != live digest %.16s after %d record(s)",
				i, op, replayed, liveDigest, rep.Records)
		}
	}
}

// autoscalePending reports whether any autoscaler has a resize in flight.
func autoscalePending(m *soda.Master) bool {
	for _, v := range m.AutoscaleReport() {
		if v.Pending {
			return true
		}
	}
	return false
}

// TestTakeoverReplayMatchesLiveUnderCompaction fails the leader over with
// the journal compacting after every record, and checks every 10 ms from
// the crash until well past the takeover that replaying the journal
// reconstructs the leader's live state. The new leader's epoch record may
// trigger a snapshot, so it must follow the rebuild of the replayed
// state: a snapshot of the standby's empty memory would lose every
// service if the new leader crashed before its next record.
func TestTakeoverReplayMatchesLiveUnderCompaction(t *testing.T) {
	tb, err := hup.New(hup.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Agent.RegisterASP("bio-institute", "genome-key"); err != nil {
		t.Fatal(err)
	}
	cfg := fastHA()
	cfg.SnapshotEvery = 1
	if _, err := tb.EnableHA(cfg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta"} {
		spec, _ := webSpec(tb, t, name, 2)
		if _, err := tb.CreateService("genome-key", spec); err != nil {
			t.Fatal(err)
		}
	}
	tb.K.RunFor(sim.Second)
	tb.Cluster.HaltLeader()
	for step := 0; step < 300; step++ {
		tb.K.RunFor(10 * sim.Millisecond)
		live := tb.Cluster.Leader().StateDigest()
		replayed, rep := soda.ReplayDigest(tb.Cluster.Journal().Bytes())
		if replayed != live {
			t.Fatalf("%d ms after the crash (%d failover(s)): replayed digest %.16s != live digest %.16s after %d record(s)",
				10*(step+1), len(tb.Cluster.Failovers()), replayed, live, rep.Records)
		}
	}
	if len(tb.Cluster.Failovers()) != 1 {
		t.Fatalf("%d failover(s) within 3 s of the crash, want 1", len(tb.Cluster.Failovers()))
	}
}
