package soda_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/accounting"
	"repro/internal/appsvc"
	"repro/internal/hup"
	"repro/internal/sim"
	"repro/internal/soda"
	"repro/internal/svcswitch"
	"repro/internal/workload"
)

func createPartitioned(t *testing.T, tb *hup.Testbed) (*soda.PartitionedService, *hup.WebDeployment, *hup.WebDeployment) {
	t.Helper()
	catalogImg := hup.WebContentImage("catalog-img", 4)
	checkoutImg := hup.WebContentImage("checkout-img", 2)
	if err := tb.Publish(catalogImg); err != nil {
		t.Fatal(err)
	}
	if err := tb.Publish(checkoutImg); err != nil {
		t.Fatal(err)
	}
	catalogWD := hup.NewWebDeployment(tb, appsvc.DefaultWebParams(64))
	checkoutWD := hup.NewWebDeployment(tb, appsvc.DefaultWebParams(32))
	m := soda.DefaultM()
	m.DiskMB = 2048

	var ps *soda.PartitionedService
	var perr error
	done := false
	tb.Master.CreatePartitionedService("storefront", []soda.ComponentSpec{
		{
			Component: "catalog", ImageName: catalogImg.Name, Repository: hup.RepoIP,
			Requirement:  soda.Requirement{N: 2, M: m},
			GuestProfile: catalogImg.SystemServices, Behavior: catalogWD.Behavior(),
		},
		{
			Component: "checkout", ImageName: checkoutImg.Name, Repository: hup.RepoIP,
			Requirement:  soda.Requirement{N: 1, M: m},
			GuestProfile: checkoutImg.SystemServices, Behavior: checkoutWD.Behavior(),
		},
	}, func(p *soda.PartitionedService) { ps, done = p, true },
		func(err error) { perr, done = err, true })
	for !done && tb.K.Pending() > 0 {
		tb.K.RunFor(sim.Second)
	}
	if perr != nil {
		t.Fatal(perr)
	}
	if ps == nil {
		t.Fatal("partitioned creation never settled")
	}
	return ps, catalogWD, checkoutWD
}

func TestPartitionedServiceCreation(t *testing.T) {
	tb := newTestbed(t)
	ps, _, _ := createPartitioned(t, tb)
	if got := ps.ComponentNames(); len(got) != 2 || got[0] != "catalog" || got[1] != "checkout" {
		t.Fatalf("components = %v", got)
	}
	if ps.TotalCapacity() != 3 {
		t.Fatalf("capacity = %d", ps.TotalCapacity())
	}
	// Components occupy disjoint nodes.
	seen := map[string]string{}
	for comp, svc := range ps.Components {
		for _, n := range svc.Nodes {
			if owner, dup := seen[string(n.IP)]; dup {
				t.Fatalf("node %s shared by %s and %s", n.IP, owner, comp)
			}
			seen[string(n.IP)] = comp
		}
	}
	// The config file is component-tagged and round-trips.
	rendered := ps.Config.Render()
	if !strings.Contains(rendered, "catalog") || !strings.Contains(rendered, "checkout") {
		t.Fatalf("config:\n%s", rendered)
	}
	parsed, err := svcswitch.ParseConfig(rendered)
	if err != nil {
		t.Fatal(err)
	}
	if comps := parsed.Components(); len(comps) != 2 {
		t.Fatalf("parsed components = %v", comps)
	}
}

func TestPartitionedSwitchRoutesByComponent(t *testing.T) {
	tb := newTestbed(t)
	ps, catalogWD, checkoutWD := createPartitioned(t, tb)
	client := tb.AddClient()

	route := func(comp string, n int) {
		for i := 0; i < n; i++ {
			err := ps.Switch.Route(svcswitch.Request{
				ClientIP: client, Bytes: workload.RequestBytes, Component: comp,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	route("catalog", 30)
	route("checkout", 10)
	tb.K.RunFor(10 * sim.Second)

	var catalogServed, checkoutServed int
	for _, node := range catalogWD.Nodes() {
		catalogServed += catalogWD.Service(node).Served
	}
	for _, node := range checkoutWD.Nodes() {
		checkoutServed += checkoutWD.Service(node).Served
	}
	if catalogServed != 30 || checkoutServed != 10 {
		t.Fatalf("served catalog=%d checkout=%d, want 30/10", catalogServed, checkoutServed)
	}
	if ps.Switch.Routed() != 40 || ps.Switch.Dropped() != 0 {
		t.Fatalf("routed=%d dropped=%d", ps.Switch.Routed(), ps.Switch.Dropped())
	}
}

func TestPartitionedUnknownComponentDropped(t *testing.T) {
	tb := newTestbed(t)
	ps, _, _ := createPartitioned(t, tb)
	client := tb.AddClient()
	if err := ps.Switch.Route(svcswitch.Request{
		ClientIP: client, Bytes: 64, Component: "no-such-component",
	}); err != nil {
		t.Fatal(err)
	}
	tb.K.RunFor(sim.Second)
	if ps.Switch.Dropped() != 1 {
		t.Fatalf("dropped = %d", ps.Switch.Dropped())
	}
}

func TestPartitionedValidation(t *testing.T) {
	tb := newTestbed(t)
	check := func(name string, comps []soda.ComponentSpec) {
		t.Helper()
		var gotErr error
		done := false
		tb.Master.CreatePartitionedService(name, comps,
			func(*soda.PartitionedService) { done = true },
			func(err error) { gotErr, done = err, true })
		for !done && tb.K.Pending() > 0 {
			tb.K.RunFor(sim.Second)
		}
		if gotErr == nil {
			t.Fatalf("invalid partitioned request %q accepted", name)
		}
	}
	check("", nil)
	check("x", nil)
	check("x", []soda.ComponentSpec{{}})
	m := soda.DefaultM()
	check("x", []soda.ComponentSpec{
		{Component: "a", ImageName: "i", Repository: hup.RepoIP, Requirement: soda.Requirement{N: 1, M: m}},
		{Component: "a", ImageName: "i", Repository: hup.RepoIP, Requirement: soda.Requirement{N: 1, M: m}},
	})
}

func TestPartitionedAdmissionFailureRollsBackEarlierComponents(t *testing.T) {
	tb := newTestbed(t)
	img := hup.WebContentImage("c-img", 2)
	if err := tb.Publish(img); err != nil {
		t.Fatal(err)
	}
	m := soda.DefaultM()
	m.DiskMB = 2048
	var gotErr error
	done := false
	tb.Master.CreatePartitionedService("monster", []soda.ComponentSpec{
		{Component: "small", ImageName: img.Name, Repository: hup.RepoIP,
			Requirement: soda.Requirement{N: 1, M: m}, GuestProfile: img.SystemServices},
		{Component: "huge", ImageName: img.Name, Repository: hup.RepoIP,
			Requirement: soda.Requirement{N: 50, M: m}, GuestProfile: img.SystemServices},
	}, func(*soda.PartitionedService) { done = true },
		func(err error) { gotErr, done = err, true })
	for !done && tb.K.Pending() > 0 {
		tb.K.RunFor(sim.Second)
	}
	if gotErr == nil {
		t.Fatal("oversized component admitted")
	}
	// The small component's resources must have been rolled back.
	for i, d := range tb.Master.Daemons() {
		if d.Nodes() != 0 {
			t.Fatalf("daemon %d leaked nodes after rollback", i)
		}
	}
	if len(tb.Master.Services()) != 0 {
		t.Fatalf("services leaked: %v", tb.Master.Services())
	}
}

func TestPartitionedTeardown(t *testing.T) {
	tb := newTestbed(t)
	ps, _, _ := createPartitioned(t, tb)
	if err := tb.Master.TeardownPartitionedService(ps); err != nil {
		t.Fatal(err)
	}
	for i, d := range tb.Master.Daemons() {
		if d.Nodes() != 0 {
			t.Fatalf("daemon %d still has nodes", i)
		}
	}
	if len(tb.Master.Services()) != 0 {
		t.Fatalf("services remain: %v", tb.Master.Services())
	}
}

// A crashed component node is healed like any service's node: its row
// leaves the shared file, the replacement is bound into the shared
// switch, and the component's traffic is served without retries.
func TestPartitionedComponentHeals(t *testing.T) {
	tb := newTestbed(t)
	tb.EnableSelfHealing(fastDetector())
	ps, catalogWD, _ := createPartitioned(t, tb)
	catalog := ps.Components["catalog"]
	if err := crashAndRecover(tb, catalog, catalog.Nodes[len(catalog.Nodes)-1]); err != nil {
		t.Fatal(err)
	}

	live := map[string]int{}
	for _, n := range catalog.Nodes {
		if !n.Guest.Alive() {
			t.Fatalf("catalog node %s not running after recovery", n.NodeName)
		}
		live[string(n.IP)] = n.Capacity
	}
	rows := ps.Config.EntriesFor("catalog")
	if len(rows) != len(live) {
		t.Fatalf("catalog rows %v, live nodes %v", rows, live)
	}
	for _, e := range rows {
		if c, ok := live[string(e.IP)]; !ok || c != e.Capacity {
			t.Fatalf("catalog row %+v is not a live node (live %v)", e, live)
		}
	}

	client := tb.AddClient()
	retried := ps.Switch.Retried()
	for i := 0; i < 40; i++ {
		if err := ps.Switch.Route(svcswitch.Request{
			ClientIP: client, Bytes: workload.RequestBytes, Component: "catalog",
		}); err != nil {
			t.Fatal(err)
		}
	}
	tb.K.RunFor(10 * sim.Second)
	served := 0
	for _, node := range catalogWD.Nodes() {
		served += catalogWD.Service(node).Served
	}
	if served != 40 || ps.Switch.Retried() != retried {
		t.Fatalf("served %d of 40 catalog requests, %d retried", served, ps.Switch.Retried()-retried)
	}
}

// ResizeService resizes one component through the shared file: the
// component's rows carry the new capacity and its traffic follows them.
func TestPartitionedComponentResizes(t *testing.T) {
	tb := newTestbed(t)
	ps, _, _ := createPartitioned(t, tb)
	var rerr error
	done := false
	tb.Master.ResizeService("storefront/catalog", 3,
		func(*soda.Service) { done = true },
		func(err error) { rerr, done = err, true })
	for !done && tb.K.Pending() > 0 {
		tb.K.RunFor(sim.Second)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	if got := ps.Components["catalog"].TotalCapacity(); got != 3 {
		t.Fatalf("catalog capacity = %d, want 3", got)
	}
	rows := ps.Config.EntriesFor("catalog")
	total := 0
	for _, e := range rows {
		total += e.Capacity
	}
	if total != 3 {
		t.Fatalf("catalog rows %v total %d, want 3", rows, total)
	}
	if got := ps.Components["checkout"].TotalCapacity(); got != 1 {
		t.Fatalf("checkout capacity = %d after resizing catalog", got)
	}

	client := tb.AddClient()
	for i := 0; i < 30; i++ {
		if err := ps.Switch.Route(svcswitch.Request{
			ClientIP: client, Bytes: workload.RequestBytes, Component: "catalog",
		}); err != nil {
			t.Fatal(err)
		}
	}
	tb.K.RunFor(10 * sim.Second)
	for _, e := range rows {
		if got, want := ps.Switch.StatsFor(e).Forwarded, 10*e.Capacity; got != want {
			t.Fatalf("row %s (capacity %d) forwarded %d of 30, want %d", e.IP, e.Capacity, got, want)
		}
	}
}

// Every component is metered, against its own reservation.
func TestPartitionedComponentsMetered(t *testing.T) {
	tb := newTestbed(t)
	tb.EnableAccounting(accounting.Options{})
	ps, _, _ := createPartitioned(t, tb)
	tb.K.RunFor(5 * sim.Second)
	usage := map[string]accounting.Usage{}
	for _, comp := range ps.ComponentNames() {
		u, ok := tb.Master.UsageTotals(ps.Components[comp].Spec.Name)
		if !ok {
			t.Fatalf("component %s is not metered", comp)
		}
		usage[comp] = u
	}
	// catalog reserves two instances of M, checkout one.
	if c, k := usage["catalog"].MemMBSeconds, usage["checkout"].MemMBSeconds; k <= 0 || math.Abs(c-2*k) > 0.01*c {
		t.Fatalf("reserved memory catalog %.0f MB·s, checkout %.0f MB·s; want 2:1", c, k)
	}
}

// Creating and tearing down a partitioned service keeps the journal's
// replay equal to the live state at every compaction cadence.
func TestPartitionedJournalReplayMatchesLive(t *testing.T) {
	for _, every := range []int{1, 2, 3, 64} {
		t.Run(fmt.Sprintf("SnapshotEvery=%d", every), func(t *testing.T) {
			tb := newTestbed(t)
			if _, err := tb.EnableHA(soda.HAConfig{SnapshotEvery: every}); err != nil {
				t.Fatal(err)
			}
			check := func(step string) {
				t.Helper()
				live := tb.Cluster.Leader().StateDigest()
				replayed, rep := soda.ReplayDigest(tb.Cluster.Journal().Bytes())
				if replayed != live {
					t.Fatalf("after %s: replayed digest %.16s != live digest %.16s after %d record(s)",
						step, replayed, live, rep.Records)
				}
				if err := soda.LiveMatchesState(tb.Cluster.Leader()); err != nil {
					t.Fatalf("after %s: %v", step, err)
				}
			}
			ps, _, _ := createPartitioned(t, tb)
			check("create")
			if err := tb.Master.TeardownPartitionedService(ps); err != nil {
				t.Fatal(err)
			}
			check("teardown")
		})
	}
}

// After a control-plane takeover the new leader's components share the
// partitioned service's switch and file again, so they resize, are
// metered and heal as before the crash.
func TestPartitionedTakeoverRestoresComponents(t *testing.T) {
	tb := newTestbed(t)
	if _, err := tb.EnableHA(fastHA()); err != nil {
		t.Fatal(err)
	}
	tb.EnableAccounting(accounting.Options{})
	tb.EnableSelfHealing(fastDetector())
	ps, _, _ := createPartitioned(t, tb)
	tb.K.RunFor(sim.Second)
	tb.Cluster.HaltLeader()
	tb.K.RunFor(3 * sim.Second)
	if len(tb.Cluster.Failovers()) != 1 {
		t.Fatalf("%d failover(s), want 1", len(tb.Cluster.Failovers()))
	}
	nl := tb.Cluster.Leader()
	if err := soda.LiveMatchesState(nl); err != nil {
		t.Fatal(err)
	}
	for _, comp := range ps.ComponentNames() {
		svc, ok := nl.Service("storefront/" + comp)
		if !ok || svc.Switch != ps.Switch || svc.Config != ps.Config {
			t.Fatalf("component %s not restored onto the shared switch and file", comp)
		}
		if got, want := svc.TotalCapacity(), ps.Components[comp].Spec.Requirement.N; got != want {
			t.Fatalf("component %s capacity = %d, want %d", comp, got, want)
		}
		if _, ok := nl.UsageTotals(svc.Spec.Name); !ok {
			t.Fatalf("component %s not metered after takeover", comp)
		}
	}

	var rerr error
	done := false
	nl.ResizeService("storefront/catalog", 3,
		func(*soda.Service) { done = true },
		func(err error) { rerr, done = err, true })
	for i := 0; !done && i < 100; i++ {
		tb.K.RunFor(sim.Second)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	catalog, _ := nl.Service("storefront/catalog")
	catalog.Nodes[len(catalog.Nodes)-1].Guest.Crash("test")
	tb.K.RunFor(20 * sim.Second)
	if recs := nl.Recoveries(); len(recs) != 1 || !recs[0].OK {
		t.Fatalf("recoveries after a crash on the new leader: %+v", recs)
	}
	client := tb.AddClient()
	retried := ps.Switch.Retried()
	for i := 0; i < 30; i++ {
		if err := ps.Switch.Route(svcswitch.Request{
			ClientIP: client, Bytes: workload.RequestBytes, Component: "catalog",
		}); err != nil {
			t.Fatal(err)
		}
	}
	tb.K.RunFor(10 * sim.Second)
	if got := ps.Switch.Retried() - retried; got != 0 || catalog.TotalCapacity() != 3 {
		t.Fatalf("after takeover, resize and heal: %d retried, catalog capacity %d", got, catalog.TotalCapacity())
	}
	if replayed, _ := soda.ReplayDigest(tb.Cluster.Journal().Bytes()); replayed != nl.StateDigest() {
		t.Fatal("replayed digest != live digest after takeover")
	}
	if err := soda.LiveMatchesState(nl); err != nil {
		t.Fatal(err)
	}
}
