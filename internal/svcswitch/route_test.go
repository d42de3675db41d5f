package svcswitch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// bindCounting binds every entry to a live handler that counts its
// requests, except the indexes in dead, whose handlers refuse.
func bindCounting(sw *Switch, k *sim.Kernel, ents []BackendEntry, dead ...int) []int {
	served := make([]int, len(ents))
	for i, e := range ents {
		i := i
		refuse := false
		for _, d := range dead {
			refuse = refuse || d == i
		}
		sw.Bind(e, func(_ simnet.IP, onDone func()) bool {
			if refuse {
				return false
			}
			served[i]++
			k.Immediately(onDone)
			return true
		})
	}
	return served
}

// A dead top-weight backend must not skew the survivors: retries walk
// on through the same rotation, so back-to-back requests to capacities 1
// and 2 still split 1:2 — also when the capacities are large enough that
// the rotation is scaled down to maxScheduleSlots.
func TestDeadTopWeightBackendSurvivorsSplitByWeight(t *testing.T) {
	for _, caps := range [][]int{{2, 1, 2}, {20000, 10000, 20001}} {
		k, _, sw, ents := switchFixture(t, caps...)
		served := bindCounting(sw, k, ents, 0)
		for i := 0; i < 30; i++ {
			sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128})
			k.Run()
		}
		if served[0] != 0 || sw.Dropped() != 0 {
			t.Fatalf("caps %v: dead backend served %d, dropped %d", caps, served[0], sw.Dropped())
		}
		if d1, d2 := served[1]-10, served[2]-20; d1 < -1 || d1 > 1 || d2 < -1 || d2 > 1 {
			t.Fatalf("caps %v: survivors served %d:%d of 30, want 10:20 ±1", caps, served[1], served[2])
		}
	}
}

// Each component keeps its own rotation: interleaved traffic to another
// component must not restart it.
func TestPartitionedComponentsKeepOwnRotation(t *testing.T) {
	k, _, sw, ents := switchFixture(t, 2, 1, 1)
	ents[0].Component, ents[1].Component, ents[2].Component = "catalog", "catalog", "checkout"
	if err := sw.Config.SetEntries(ents); err != nil {
		t.Fatal(err)
	}
	served := bindCounting(sw, k, ents)
	for i := 0; i < 30; i++ {
		sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128, Component: "catalog"})
		sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128, Component: "checkout"})
	}
	k.Run()
	if d0, d1 := served[0]-20, served[1]-10; d0 < -1 || d0 > 1 || d1 < -1 || d1 > 1 {
		t.Fatalf("catalog (capacity 2, 1) served %d:%d of 30, want 20:10 ±1", served[0], served[1])
	}
	if served[2] != 30 {
		t.Fatalf("checkout served %d of 30", served[2])
	}
}

// The memoized rotation reproduces the WeightedRoundRobin policy's own
// pick sequence across cycles, GCD reduction included — the property
// that keeps fault-free routing identical to consulting the policy.
func TestWRRCycleMatchesPolicy(t *testing.T) {
	if err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 6 {
			raw = raw[:6]
		}
		caps := make([]int, len(raw))
		scale := int(raw[0]%3) + 1
		for i, c := range raw {
			caps[i] = (int(c%5) + 1) * scale
		}
		ents := entries(caps...)
		order := wrrCycle(ents)
		p := NewWeightedRoundRobin()
		for i := 0; i < 3*len(order); i++ {
			if idx, _ := p.Pick(ents, nil); idx != int(order[i%len(order)]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A rotation whose reduced capacities sum past maxScheduleSlots is
// scaled down to fit: every backend keeps a slot, and each share stays
// within (n+1)/(maxScheduleSlots-n) of its capacity share.
func TestWRRCycleScalesLongRotations(t *testing.T) {
	for _, caps := range [][]int{{5000, 1}, {9973, 7919, 1, 3}, {1 << 40, 1 << 20, 3}} {
		order := wrrCycle(entries(caps...))
		n, total := len(caps), 0
		for _, c := range caps {
			total += c
		}
		if len(order) > maxScheduleSlots+n {
			t.Fatalf("caps %v: rotation of %d slots", caps, len(order))
		}
		count := make([]int, n)
		for _, j := range order {
			count[j]++
		}
		bound := float64(n+1) / float64(maxScheduleSlots-n)
		for i, c := range caps {
			got, want := float64(count[i])/float64(len(order)), float64(c)/float64(total)
			if count[i] == 0 || got-want > bound || want-got > bound {
				t.Fatalf("caps %v: backend %d holds %d of %d slots (share %.5f, want %.5f)",
					caps, i, count[i], len(order), got, want)
			}
		}
	}
}

// The tried set has no 64-backend ceiling: a request walks past 69 dead
// backends to the one live one.
func TestRetryWalksBeyond64Backends(t *testing.T) {
	k, net, sw, _ := switchFixture(t, 1)
	host := net.MustAttach("wide", 100)
	ents := make([]BackendEntry, 70)
	for i := range ents {
		ents[i] = BackendEntry{IP: simnet.IP(fmt.Sprintf("10.0.2.%d", i+1)), Port: 8080, Capacity: 1}
		if err := host.AddIP(ents[i].IP); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Config.SetEntries(ents); err != nil {
		t.Fatal(err)
	}
	dead := make([]int, 69)
	for i := range dead {
		dead[i] = i
	}
	served := bindCounting(sw, k, ents, dead...)
	var traces []Trace
	sw.OnTrace(func(tr Trace) { traces = append(traces, tr) })
	sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128})
	k.Run()
	if served[69] != 1 || sw.Dropped() != 0 {
		t.Fatalf("live backend served %d, dropped %d", served[69], sw.Dropped())
	}
	if len(traces) != 1 || traces[0].Retries != 69 || sw.Retried() != 69 {
		t.Fatalf("retries = %+v / %d, want 69", traces, sw.Retried())
	}
}

// routeAllocs measures steady-state allocations per routed request.
func routeAllocs(t *testing.T, dead ...int) float64 {
	t.Helper()
	k, _, sw, ents := switchFixture(t, 2, 1, 1)
	bindCounting(sw, k, ents, dead...)
	return testing.AllocsPerRun(200, func() {
		sw.Route(Request{ClientIP: "10.0.1.1", Bytes: 128})
		k.Run()
	})
}

// TestRoutingZeroAlloc pins the untraced routing path at 0 allocs per
// request, with and without a retry past a dead backend, so a
// regression fails `go test`, not just the benchmark.
func TestRoutingZeroAlloc(t *testing.T) {
	if a := routeAllocs(t); a != 0 {
		t.Fatalf("no-retry routing allocates %.1f/request, want 0", a)
	}
	if a := routeAllocs(t, 0); a != 0 {
		t.Fatalf("retrying past a dead backend allocates %.1f/request, want 0", a)
	}
}

// The router is shared by concurrent live requests: hammer one with
// failing and succeeding attempts from several goroutines, health on,
// under both pick paths, and check that every attempt's accounting
// balances. Run with -race.
func TestRouterConcurrentAttempts(t *testing.T) {
	for _, pol := range []Policy{NewWeightedRoundRobin(), NewLeastActive()} {
		cfg := NewConfigFile("concurrent")
		if err := cfg.SetEntries(entries(2, 1, 1, 3)); err != nil {
			t.Fatal(err)
		}
		r := NewRouter(cfg, false, func(string) struct{} { return struct{}{} })
		r.SetPolicy(pol)
		r.SetHealth(HealthConfig{EjectAfter: 2, ProbeAfter: 50})
		var clock atomic.Int64
		var wg sync.WaitGroup
		var served atomic.Int64
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					rt := r.Route("")
					var tried Tried
					for {
						now := clock.Add(1)
						idx := r.Pick(rt, &tried, now)
						if idx < 0 {
							break
						}
						r.Begin(rt, idx)
						if (i+idx)%3 == 0 { // backends fail a third of their attempts
							r.Fail(rt, idx, now)
							continue
						}
						r.Done(rt, idx)
						r.Forwarded(rt, idx)
						served.Add(1)
						break
					}
				}
			}()
		}
		wg.Wait()
		forwarded := 0
		for _, e := range cfg.Entries() {
			st := r.StatsFor(e.Addr())
			if st.Active != 0 {
				t.Fatalf("%s: backend %s left %d requests active", pol.Name(), e.Addr(), st.Active)
			}
			forwarded += st.Forwarded
		}
		if int64(forwarded) != served.Load() || r.Routed.Value() != served.Load() {
			t.Fatalf("%s: forwarded %d, routed %d, served %d", pol.Name(), forwarded, r.Routed.Value(), served.Load())
		}
	}
}
