package svcswitch

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cycles"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

func entries(caps ...int) []BackendEntry {
	out := make([]BackendEntry, len(caps))
	for i, c := range caps {
		out[i] = BackendEntry{IP: simnet.IP("10.0.0." + string(rune('1'+i))), Port: 8080, Capacity: c}
	}
	return out
}

func TestBackendEntryValidate(t *testing.T) {
	cases := []BackendEntry{
		{},
		{IP: "1.1.1.1"},
		{IP: "1.1.1.1", Port: 70000, Capacity: 1},
		{IP: "1.1.1.1", Port: 80, Capacity: 0},
	}
	for i, e := range cases {
		if e.Validate() == nil {
			t.Errorf("case %d: invalid entry accepted: %+v", i, e)
		}
	}
	if err := (BackendEntry{IP: "1.1.1.1", Port: 80, Capacity: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigFileSetAddRemove(t *testing.T) {
	c := NewConfigFile("web")
	if err := c.SetEntries(entries(2, 1)); err != nil {
		t.Fatal(err)
	}
	if c.TotalCapacity() != 3 || c.Version() != 1 {
		t.Fatalf("capacity=%d version=%d", c.TotalCapacity(), c.Version())
	}
	if err := c.AddEntry(BackendEntry{IP: "10.0.0.9", Port: 8080, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if c.TotalCapacity() != 4 || c.Version() != 2 {
		t.Fatalf("after add: capacity=%d version=%d", c.TotalCapacity(), c.Version())
	}
	if !c.RemoveEntry("10.0.0.9", 8080) || c.RemoveEntry("10.0.0.9", 8080) {
		t.Fatal("remove semantics wrong")
	}
	if c.Version() != 3 {
		t.Fatalf("version = %d", c.Version())
	}
}

func TestConfigFileRejectsDuplicatesAndInvalid(t *testing.T) {
	c := NewConfigFile("web")
	dup := []BackendEntry{
		{IP: "1.1.1.1", Port: 80, Capacity: 1},
		{IP: "1.1.1.1", Port: 80, Capacity: 2},
	}
	if err := c.SetEntries(dup); err == nil {
		t.Fatal("duplicate backends accepted")
	}
	if err := c.SetEntries([]BackendEntry{{}}); err == nil {
		t.Fatal("invalid entry accepted")
	}
}

func TestConfigRenderMatchesTable3Format(t *testing.T) {
	c := NewConfigFile("webcontent")
	c.SetEntries([]BackendEntry{
		{IP: "128.10.9.125", Port: 8080, Capacity: 2},
		{IP: "128.10.9.126", Port: 8080, Capacity: 1},
	})
	out := c.Render()
	if !strings.Contains(out, "BackEnd 128.10.9.125 8080 2") ||
		!strings.Contains(out, "BackEnd 128.10.9.126 8080 1") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestConfigParseRoundTrip(t *testing.T) {
	c := NewConfigFile("webcontent")
	c.SetEntries(entries(2, 1, 3))
	parsed, err := ParseConfig(c.Render())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.ServiceName != "webcontent" {
		t.Fatalf("service name = %q", parsed.ServiceName)
	}
	if parsed.TotalCapacity() != c.TotalCapacity() || len(parsed.Entries()) != 3 {
		t.Fatal("round trip lost entries")
	}
}

func TestConfigParseErrors(t *testing.T) {
	for _, bad := range []string{
		"FrontEnd 1.1.1.1 80 1",
		"BackEnd 1.1.1.1 eighty 1",
		"BackEnd 1.1.1.1 80 lots",
		"BackEnd 1.1.1.1 80",
	} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("bad line %q accepted", bad)
		}
	}
}

func TestWeightedRoundRobinHonoursCapacities(t *testing.T) {
	p := NewWeightedRoundRobin()
	ents := entries(2, 1)
	counts := make([]int, 2)
	for i := 0; i < 300; i++ {
		idx, err := p.Pick(ents, make([]Stats, 2))
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	if counts[0] != 200 || counts[1] != 100 {
		t.Fatalf("distribution = %v, want exactly 2:1", counts)
	}
}

func TestWeightedRoundRobinIsSmooth(t *testing.T) {
	// Smooth WRR with weights 2:1 never picks the same low-weight backend
	// twice in a row.
	p := NewWeightedRoundRobin()
	ents := entries(2, 1)
	prev := -1
	for i := 0; i < 30; i++ {
		idx, _ := p.Pick(ents, make([]Stats, 2))
		if idx == 1 && prev == 1 {
			t.Fatal("low-capacity backend picked twice consecutively")
		}
		prev = idx
	}
}

func TestWeightedRoundRobinPropertyDistribution(t *testing.T) {
	if err := quick.Check(func(a, b uint8) bool {
		ca, cb := int(a%5)+1, int(b%5)+1
		p := NewWeightedRoundRobin()
		ents := entries(ca, cb)
		total := (ca + cb) * 20
		counts := make([]int, 2)
		for i := 0; i < total; i++ {
			idx, _ := p.Pick(ents, make([]Stats, 2))
			counts[idx]++
		}
		return counts[0] == ca*20 && counts[1] == cb*20
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	p := NewRoundRobin()
	ents := entries(5, 1, 1)
	var got []int
	for i := 0; i < 6; i++ {
		idx, _ := p.Pick(ents, make([]Stats, 3))
		got = append(got, idx)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v", got)
		}
	}
}

func TestRandomPolicyInRange(t *testing.T) {
	p := NewRandom(sim.NewRNG(1))
	ents := entries(1, 1, 1)
	for i := 0; i < 100; i++ {
		idx, err := p.Pick(ents, make([]Stats, 3))
		if err != nil || idx < 0 || idx > 2 {
			t.Fatalf("pick = %d, %v", idx, err)
		}
	}
}

func TestLeastActivePicksIdleBackend(t *testing.T) {
	p := NewLeastActive()
	ents := entries(1, 1)
	idx, _ := p.Pick(ents, []Stats{{Active: 5}, {Active: 1}})
	if idx != 1 {
		t.Fatalf("picked %d, want the idle backend", idx)
	}
	// Capacity weighting: 4 active on capacity 2 (load 2) beats 3 on
	// capacity 1 (load 3).
	ents2 := entries(2, 1)
	idx, _ = p.Pick(ents2, []Stats{{Active: 4}, {Active: 3}})
	if idx != 0 {
		t.Fatalf("picked %d, want capacity-weighted least", idx)
	}
}

func TestIllBehavedPolicyMisbehaves(t *testing.T) {
	p := NewIllBehaved()
	ents := entries(1)
	idx, err := p.Pick(ents, make([]Stats, 1))
	if err == nil && idx < len(ents) {
		t.Fatal("ill-behaved policy behaved")
	}
	_, err2 := p.Pick(ents, make([]Stats, 1))
	if (err == nil) == (err2 == nil) {
		t.Fatal("ill-behaved policy should alternate failure modes")
	}
}

// fakeNode satisfies Node with immediate CPU execution over a kernel.
type fakeNode struct {
	ip    simnet.IP
	k     *sim.Kernel
	alive bool
}

func (n *fakeNode) IP() simnet.IP { return n.ip }
func (n *fakeNode) ExecCPU(c cycles.Cycles, onDone func()) bool {
	if !n.alive {
		return false
	}
	n.k.Immediately(onDone)
	return true
}
func (n *fakeNode) SyscallCost(s cycles.Syscall) cycles.Cycles { return cycles.HostCost(s) }
func (n *fakeNode) Alive() bool                                { return n.alive }

func switchFixture(t *testing.T, caps ...int) (*sim.Kernel, *simnet.Network, *Switch, []BackendEntry) {
	t.Helper()
	k := sim.NewKernel()
	net := simnet.New(k, 10*sim.Microsecond)
	host := net.MustAttach("host", 100)
	client := net.MustAttach("client", 100)
	if err := client.AddIP("10.0.1.1"); err != nil {
		t.Fatal(err)
	}
	if err := host.AddIP("10.0.0.0"); err != nil { // switch node address
		t.Fatal(err)
	}
	ents := entries(caps...)
	for _, e := range ents {
		if err := host.AddIP(e.IP); err != nil {
			t.Fatal(err)
		}
	}
	cfg := NewConfigFile("svc")
	if err := cfg.SetEntries(ents); err != nil {
		t.Fatal(err)
	}
	sw := New(net, &fakeNode{ip: "10.0.0.0", k: k, alive: true}, cfg)
	return k, net, sw, ents
}

func TestSwitchRoutesAndCounts(t *testing.T) {
	k, _, sw, ents := switchFixture(t, 2, 1)
	reg := telemetry.NewRegistry()
	sw.Instrument(reg)
	served := make(map[string]int)
	for _, e := range ents {
		e := e
		sw.Bind(e, func(client simnet.IP, onDone func()) bool {
			served[e.Addr()]++
			k.Immediately(onDone)
			return true
		})
	}
	completed := 0
	for i := 0; i < 30; i++ {
		if err := sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 512, OnDone: func() { completed++ }}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if completed != 30 || sw.Routed() != 30 || sw.Dropped() != 0 {
		t.Fatalf("completed=%d routed=%d dropped=%d", completed, sw.Routed(), sw.Dropped())
	}
	if served[ents[0].Addr()] != 20 || served[ents[1].Addr()] != 10 {
		t.Fatalf("split = %v, want 2:1", served)
	}
	if st := sw.StatsFor(ents[0]); st.Forwarded != 20 || st.Active != 0 {
		t.Fatalf("stats = %+v", st)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("soda_switch_routed_total", telemetry.L("service", "svc")); got != 30 {
		t.Fatalf("routed series = %d, want 30", got)
	}
	// Retry exhaustion is a live-proxy gate; the simulated switch must
	// not expose a series it can never increment.
	for _, c := range snap.Counters {
		if c.Name == "soda_switch_retry_exhausted_total" {
			t.Fatalf("simulated switch exposes %s", c.Name)
		}
	}
}

func TestSwitchSkipsDeadBackend(t *testing.T) {
	k, _, sw, ents := switchFixture(t, 1, 1)
	alive := 0
	sw.Bind(ents[0], func(simnet.IP, func()) bool { return false }) // dead
	sw.Bind(ents[1], func(client simnet.IP, onDone func()) bool {
		alive++
		k.Immediately(onDone)
		return true
	})
	for i := 0; i < 10; i++ {
		sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128})
	}
	k.Run()
	if alive != 10 {
		t.Fatalf("live backend served %d of 10", alive)
	}
	if sw.Dropped() != 0 {
		t.Fatalf("dropped = %d", sw.Dropped())
	}
}

func TestSwitchDropsWhenAllBackendsDead(t *testing.T) {
	k, _, sw, ents := switchFixture(t, 1, 1)
	for _, e := range ents {
		sw.Bind(e, func(simnet.IP, func()) bool { return false })
	}
	sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128})
	k.Run()
	if sw.Dropped() != 1 || sw.Routed() != 0 {
		t.Fatalf("dropped=%d routed=%d", sw.Dropped(), sw.Routed())
	}
}

func TestSwitchUnboundBackendsAreSkipped(t *testing.T) {
	k, _, sw, ents := switchFixture(t, 1, 1)
	served := 0
	sw.Bind(ents[1], func(client simnet.IP, onDone func()) bool {
		served++
		k.Immediately(onDone)
		return true
	})
	for i := 0; i < 4; i++ {
		sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128})
	}
	k.Run()
	if served != 4 {
		t.Fatalf("served = %d", served)
	}
}

func TestSwitchIllBehavedPolicyOnlyDropsOwnRequests(t *testing.T) {
	k, _, sw, ents := switchFixture(t, 1)
	sw.Bind(ents[0], func(client simnet.IP, onDone func()) bool {
		k.Immediately(onDone)
		return true
	})
	sw.SetPolicy(NewIllBehaved())
	for i := 0; i < 6; i++ {
		sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128})
	}
	k.Run()
	if sw.Dropped() != 6 {
		t.Fatalf("dropped = %d, want all 6 (bad picks and errors)", sw.Dropped())
	}
	// The switch itself survives: restore a sane policy and serve.
	sw.SetPolicy(NewWeightedRoundRobin())
	done := false
	sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128, OnDone: func() { done = true }})
	k.Run()
	if !done {
		t.Fatal("switch did not recover from ill-behaved policy")
	}
}

func TestSwitchDeadNodeDropsRequests(t *testing.T) {
	k, _, sw, ents := switchFixture(t, 1)
	sw.Bind(ents[0], func(client simnet.IP, onDone func()) bool {
		k.Immediately(onDone)
		return true
	})
	node := sw.node.(*fakeNode)
	node.alive = false
	if err := sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128}); err == nil {
		t.Fatal("dead switch accepted a request")
	}
	if sw.Dropped() != 1 {
		t.Fatalf("dropped = %d", sw.Dropped())
	}
}

func TestSwitchPolicyResetOnConfigChange(t *testing.T) {
	k, _, sw, ents := switchFixture(t, 2, 1)
	for _, e := range ents {
		sw.Bind(e, func(client simnet.IP, onDone func()) bool {
			k.Immediately(onDone)
			return true
		})
	}
	sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128})
	k.Run()
	// Resizing bumps the config version; the next request must reset the
	// policy state without error.
	if err := sw.Config.AddEntry(BackendEntry{IP: "10.0.0.9", Port: 8080, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128})
	k.Run()
	if sw.Routed() != 2 {
		t.Fatalf("routed = %d", sw.Routed())
	}
}

func TestSwitchSetPolicyNilPanics(t *testing.T) {
	_, _, sw, _ := switchFixture(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("nil policy accepted")
		}
	}()
	sw.SetPolicy(nil)
}

func TestTraceStagesMonotonic(t *testing.T) {
	k, _, sw, ents := switchFixture(t, 1)
	sw.Bind(ents[0], func(client simnet.IP, onDone func()) bool {
		k.After(5*sim.Millisecond, onDone)
		return true
	})
	var traces []Trace
	sw.OnTrace(func(tr Trace) { traces = append(traces, tr) })
	for i := 0; i < 5; i++ {
		sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 256})
	}
	k.Run()
	if len(traces) != 5 {
		t.Fatalf("traces = %d", len(traces))
	}
	for _, tr := range traces {
		if tr.Dropped {
			t.Fatalf("trace dropped: %+v", tr)
		}
		if !(tr.Accepted <= tr.Arrived && tr.Arrived <= tr.Picked &&
			tr.Picked <= tr.Delivered && tr.Delivered <= tr.Completed) {
			t.Fatalf("stages not monotonic: %+v", tr)
		}
		if tr.Backend != ents[0].Addr() || tr.Retries != 0 {
			t.Fatalf("trace identity wrong: %+v", tr)
		}
		if tr.ServiceTime() < 5*sim.Millisecond {
			t.Fatalf("service time = %v, want ≥5ms", tr.ServiceTime())
		}
		if tr.Total() != tr.SwitchHop()+tr.ServiceTime() {
			t.Fatalf("stage sums wrong: %+v", tr)
		}
	}
}

func TestTraceRecordsRetriesAndDrops(t *testing.T) {
	k, _, sw, ents := switchFixture(t, 1, 1)
	sw.Bind(ents[0], func(simnet.IP, func()) bool { return false })
	sw.Bind(ents[1], func(client simnet.IP, onDone func()) bool {
		k.Immediately(onDone)
		return true
	})
	var traces []Trace
	sw.OnTrace(func(tr Trace) { traces = append(traces, tr) })
	// Policy order is deterministic: the dead backend may be tried first;
	// either way every request completes, possibly after a retry.
	for i := 0; i < 4; i++ {
		sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128})
	}
	k.Run()
	var retried int
	for _, tr := range traces {
		if tr.Dropped {
			t.Fatalf("dropped despite a live backend: %+v", tr)
		}
		retried += tr.Retries
	}
	if retried == 0 {
		t.Fatal("no retries recorded though one backend is dead")
	}
	// Now kill both: traces must mark drops.
	sw.Bind(ents[1], func(simnet.IP, func()) bool { return false })
	traces = nil
	sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128})
	k.Run()
	if len(traces) != 1 || !traces[0].Dropped {
		t.Fatalf("drop not traced: %+v", traces)
	}
}
