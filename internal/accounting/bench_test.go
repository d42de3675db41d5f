package accounting_test

import (
	"testing"

	"repro/internal/accounting"
	"repro/internal/cycles"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/svcswitch"
	"repro/internal/telemetry"
)

type benchNode struct {
	ip simnet.IP
	k  *sim.Kernel
}

func (n *benchNode) IP() simnet.IP { return n.ip }
func (n *benchNode) ExecCPU(c cycles.Cycles, onDone func()) bool {
	n.k.Immediately(onDone)
	return true
}
func (n *benchNode) SyscallCost(s cycles.Syscall) cycles.Cycles { return cycles.HostCost(s) }
func (n *benchNode) Alive() bool                                { return true }

// benchSwitch mirrors svcswitch's own benchmark fixture: a 3-backend
// instrumented switch on a fast simulated LAN.
func benchSwitch(b *testing.B) (*sim.Kernel, *simnet.Network, *svcswitch.Switch) {
	b.Helper()
	k := sim.NewKernel()
	net := simnet.New(k, 10*sim.Microsecond)
	host := net.MustAttach("host", 1000)
	client := net.MustAttach("client", 1000)
	if err := client.AddIP("10.0.1.1"); err != nil {
		b.Fatal(err)
	}
	if err := host.AddIP("10.0.0.0"); err != nil {
		b.Fatal(err)
	}
	ents := []svcswitch.BackendEntry{
		{IP: "10.0.0.1", Port: 8080, Capacity: 2},
		{IP: "10.0.0.2", Port: 8080, Capacity: 1},
		{IP: "10.0.0.3", Port: 8080, Capacity: 1},
	}
	for _, e := range ents {
		if err := host.AddIP(e.IP); err != nil {
			b.Fatal(err)
		}
	}
	cfg := svcswitch.NewConfigFile("svc")
	if err := cfg.SetEntries(ents); err != nil {
		b.Fatal(err)
	}
	sw := svcswitch.New(net, &benchNode{ip: "10.0.0.0", k: k}, cfg)
	sw.Instrument(telemetry.NewRegistry())
	for _, e := range ents {
		sw.Bind(e, func(client simnet.IP, onDone func()) bool {
			k.Immediately(onDone)
			return true
		})
	}
	return k, net, sw
}

func runRouting(b *testing.B, k *sim.Kernel, sw *svcswitch.Switch, n int) {
	b.Helper()
	completed := 0
	var issue func()
	issue = func() {
		completed++
		if completed >= n {
			// The metering tickers re-arm forever; stop the kernel
			// explicitly once the request quota completes.
			k.Stop()
			return
		}
		if err := sw.Route(svcswitch.Request{ClientIP: "10.0.1.1", Bytes: 512, OnDone: issue}); err != nil {
			b.Fatal(err)
		}
	}
	if err := sw.Route(svcswitch.Request{ClientIP: "10.0.1.1", Bytes: 512, OnDone: issue}); err != nil {
		b.Fatal(err)
	}
	k.Run()
	if completed != n {
		b.Fatalf("completed %d/%d", completed, n)
	}
}

// BenchmarkRoutingMetered measures what the accounting pipeline costs
// the switch's routing hot path. The meter is deliberately off-path —
// it samples odometers on a periodic tick instead of intercepting
// requests — so the metered variant must stay within the same 5%
// acceptance bar as the telemetry layer, and the per-request path must
// stay allocation-free.
func BenchmarkRoutingMetered(b *testing.B) {
	for _, metered := range []bool{false, true} {
		name := "unmetered"
		if metered {
			name = "metered"
		}
		b.Run(name, func(b *testing.B) {
			k, net, sw := benchSwitch(b)
			if metered {
				acct := accounting.New(accounting.Options{
					Clock:    k.Now,
					Registry: telemetry.NewRegistry(),
				})
				acct.Watch(accounting.WatchConfig{
					Service: "svc",
					SLO:     svcswitch.SLO{Availability: 0.99},
					Nodes: []accounting.NodeRef{
						{Name: "svc-0", UID: 1, IP: "10.0.0.1"},
						{Name: "svc-1", UID: 2, IP: "10.0.0.2"},
						{Name: "svc-2", UID: 3, IP: "10.0.0.3"},
					},
					Net: net,
					Reserved: func() accounting.ReservedResources {
						return accounting.ReservedResources{CPUMHz: 600, MemoryMB: 128, DiskMB: 512}
					},
					Latency: sw.LatencyHistogram(),
					Routed:  func() int64 { return int64(sw.Routed()) },
					Dropped: func() int64 { return int64(sw.Dropped()) },
				})
				// Same combined tick the hup testbed schedules.
				evalEvery := int(acct.EvalPeriod() / accounting.SamplePeriod)
				ticks := 0
				k.Every(accounting.SamplePeriod, func() {
					acct.Sample()
					if ticks++; ticks%evalEvery == 0 {
						acct.Evaluate()
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			runRouting(b, k, sw, b.N)
			b.StopTimer()
			if sw.Routed() < b.N {
				b.Fatalf("routed %d < N %d", sw.Routed(), b.N)
			}
		})
	}
}
