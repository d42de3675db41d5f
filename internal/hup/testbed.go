// Package hup assembles a complete Hosting Utility Platform testbed: the
// simulation kernel, the LAN, the HUP hosts with their SODA Daemons, the
// SODA Master and Agent, an ASP image repository, and client machines.
// The default configuration reproduces the paper's two-host testbed
// (§4: seattle and tacoma on a 100 Mbps LAN, with "a number of laptop and
// desktop PCs running as the SODA Agent, SODA Master, and service
// clients").
package hup

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/accounting"
	"repro/internal/chaos"
	"repro/internal/flight"
	"repro/internal/hostos"
	"repro/internal/hostos/sched"
	"repro/internal/image"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/soda"
	"repro/internal/telemetry"
)

// Config parameterises a testbed.
type Config struct {
	// Hosts are the HUP hosts; nil means the paper's seattle + tacoma.
	Hosts []hostos.Spec
	// Latency is the LAN's one-way propagation delay; 0 means 100 µs.
	Latency sim.Duration
	// NewScheduler builds each host's CPU scheduler; nil means SODA's
	// proportional-share scheduler.
	NewScheduler func() sched.Scheduler
	// Seed drives all the testbed's randomness.
	Seed uint64
	// AddressMode selects bridging (default) or the §3.3-footnote-3
	// proxying for virtual service node addressing.
	AddressMode soda.AddressMode
}

// Well-known control-plane addresses on the testbed LAN.
const (
	MasterIP  = simnet.IP("128.10.9.2")
	AgentIP   = simnet.IP("128.10.9.3")
	StandbyIP = simnet.IP("128.10.9.4")
	RepoIP    = simnet.IP("128.10.8.1")
)

// Testbed is a running HUP with its SODA control plane.
type Testbed struct {
	K       *sim.Kernel
	Net     *simnet.Network
	Hosts   []*hostos.Host
	Daemons []*soda.Daemon
	Master  *soda.Master
	Agent   *soda.Agent
	Repo    *image.Repository
	RNG     *sim.RNG

	// Registry and Tracer are built by New, on the kernel's virtual
	// clock, and instrument the whole control plane.
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer

	// Accountant is nil until EnableAccounting.
	Accountant *accounting.Accountant

	// Chaos is nil until EnableChaos.
	Chaos *chaos.Injector

	// Standby and Cluster are nil until EnableHA.
	Standby *soda.Master
	Cluster *soda.Cluster

	// Flight and FlightLog are nil until EnableFlightRecorder.
	Flight    *flight.Recorder
	FlightLog *flight.Logger

	// ReqTraces is nil until EnableRequestTracing.
	ReqTraces *reqtrace.Store

	clients     int
	autoscaling bool
}

// maxHosts is the largest HUP the address plan of hostAddressing covers.
const maxHosts = 4096

// hostAddressing returns host i's own address and its daemon's disjoint
// IP pool (§4.3). The first 90 hosts share the 128.10.9 subnet with the
// control plane: host addresses .10–.99, and the first seven pools
// .100–.239; pools 7–89 each get 128.10.(40+i).100–119. Every later host
// gets a /24 of its own under 128.11.0.0 and up — its address at .10,
// its pool at .100–.119 — so large replica fleets (the -primescale
// experiment) build without collisions.
func hostAddressing(i int) (simnet.IP, *simnet.IPPool, error) {
	hostIP := simnet.IP(fmt.Sprintf("128.10.9.%d", 10+i))
	subnet, lo := fmt.Sprintf("128.10.%d", 40+i), 100
	switch {
	case i < 7:
		subnet, lo = "128.10.9", 100+i*20
	case i >= 90:
		j := i - 90
		subnet = fmt.Sprintf("128.%d.%d", 11+j/256, j%256)
		hostIP = simnet.IP(subnet + ".10")
	}
	pool, err := simnet.NewIPPool(subnet, lo, lo+19)
	return hostIP, pool, err
}

// New builds a testbed.
func New(cfg Config) (*Testbed, error) {
	if cfg.Hosts == nil {
		cfg.Hosts = []hostos.Spec{hostos.Seattle(), hostos.Tacoma()}
	}
	if cfg.Latency == 0 {
		cfg.Latency = 100 * sim.Microsecond
	}
	if cfg.NewScheduler == nil {
		cfg.NewScheduler = func() sched.Scheduler { return sched.NewProportional() }
	}
	if len(cfg.Hosts) > maxHosts {
		return nil, fmt.Errorf("hup: %d hosts exceed the %d the address plan supports", len(cfg.Hosts), maxHosts)
	}
	k := sim.NewKernel()
	net := simnet.New(k, cfg.Latency)
	tb := &Testbed{K: k, Net: net, RNG: sim.NewRNG(cfg.Seed ^ 0x50da)}

	for i, spec := range cfg.Hosts {
		h, err := hostos.New(k, spec, cfg.NewScheduler())
		if err != nil {
			return nil, err
		}
		nic, err := net.Attach(spec.Name, spec.NICMbps)
		if err != nil {
			return nil, err
		}
		hostIP, pool, err := hostAddressing(i)
		if err != nil {
			return nil, err
		}
		if err := nic.AddIP(hostIP); err != nil {
			return nil, err
		}
		d, err := soda.NewDaemon(soda.DaemonConfig{
			Host:    h,
			NIC:     nic,
			Net:     net,
			HostIP:  hostIP,
			Pool:    pool,
			UIDBase: 10000 * (i + 1),
			Mode:    cfg.AddressMode,
		})
		if err != nil {
			return nil, err
		}
		tb.Hosts = append(tb.Hosts, h)
		tb.Daemons = append(tb.Daemons, d)
	}

	// Control-plane machines.
	for _, m := range []struct {
		name string
		ip   simnet.IP
	}{{"master", MasterIP}, {"agent", AgentIP}, {"asp-repo", RepoIP}} {
		nic, err := net.Attach(m.name, 100)
		if err != nil {
			return nil, err
		}
		if err := nic.AddIP(m.ip); err != nil {
			return nil, err
		}
	}
	repo, err := image.NewRepository(net, RepoIP)
	if err != nil {
		return nil, err
	}
	tb.Repo = repo
	master, err := soda.NewMaster(net, MasterIP, tb.Daemons)
	if err != nil {
		return nil, err
	}
	tb.Master = master
	agent, err := soda.NewAgent(net, AgentIP, master)
	if err != nil {
		return nil, err
	}
	tb.Agent = agent
	for _, d := range tb.Daemons {
		d.RegisterRepository(repo)
	}
	tb.instrument()
	return tb, nil
}

// instrument builds the metrics registry and the tracer on the kernel's
// virtual clock and wires them through the whole control plane: the
// Master (admission counters, priming span trees, switch
// instrumentation) and each Daemon (stage histograms, node gauges).
func (tb *Testbed) instrument() {
	k := tb.K
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(func() sim.Duration { return k.Now().Duration() })
	tb.Master.Instrument(reg, tracer)
	for _, d := range tb.Daemons {
		d.Instrument(reg)
	}
	// Identity instruments: soda_build_info is a constant-1 gauge whose
	// labels carry the build, and soda_uptime_seconds is refreshed at
	// exposition time (api.handleMetrics) rather than by a standing timer
	// — a timer here would keep the kernel's event queue from draining
	// for callers that use K.Run().
	mod := "repro"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Path != "" {
		mod = bi.Main.Path
	}
	reg.Gauge("soda_build_info",
		telemetry.L("go", runtime.Version()), telemetry.L("module", mod)).Set(1)
	reg.Gauge("soda_uptime_seconds").Set(k.Now().Seconds())
	tb.Registry, tb.Tracer = reg, tracer
}

// mustAttach enforces the attach-once rule for the Testbed's features:
// each is attached at most once, and before the first service, so no
// attach has to retrofit live services. It panics naming the call
// otherwise.
func (tb *Testbed) mustAttach(call string, attached bool) {
	switch {
	case attached:
		panic("hup: " + call + " called twice")
	case tb.Master.Admitted() > 0:
		panic("hup: " + call + " after the first service; attach features before creating services")
	}
}

// maxIncidentTraces bounds how many retained slow traces an
// SLO-violation incident bundle embeds.
const maxIncidentTraces = 32

// EnableRequestTracing builds the tail-sampling per-request trace
// store and attaches it to the Master: every service switch gets a
// per-service collector whose slow-retention threshold derives from the
// service's SLO latency target (cfg's SlowThreshold when the service
// has none). Trace IDs share the telemetry exemplar namespace, so
// latency exemplars point at retained records, resolvable via
// /traces/{id}. Retention is deterministic: under the virtual clock,
// same-seed runs keep byte-identical rings. Attach once, before the
// first service.
func (tb *Testbed) EnableRequestTracing(cfg reqtrace.Config) *reqtrace.Store {
	tb.mustAttach("EnableRequestTracing", tb.ReqTraces != nil)
	st := reqtrace.NewStore(cfg, tb.Registry)
	tb.Master.EnableRequestTracing(st)
	tb.ReqTraces = st
	return st
}

// EnableAccounting builds the usage-metering and SLO-evaluation
// subsystem on the kernel's virtual clock, attaches it to the Master
// (services watched on activation, violations surfaced as events), and
// schedules the sampling and evaluation ticks on the kernel. opt's
// Clock, Registry and Tracer are overridden with the testbed's;
// zero-valued fields take the accounting defaults. Attach once, before
// the first service.
func (tb *Testbed) EnableAccounting(opt accounting.Options) *accounting.Accountant {
	tb.mustAttach("EnableAccounting", tb.Accountant != nil)
	k := tb.K
	opt.Clock = func() sim.Time { return k.Now() }
	opt.Registry = tb.Registry
	opt.Tracer = tb.Tracer
	acct := accounting.New(opt)
	tb.Master.EnableAccounting(acct)
	// One combined ticker drives both sampling and evaluation: a single
	// standing timer keeps the kernel's event heap shallow for the
	// routing hot path, and evaluations always see a fresh sample.
	evalEvery := int(acct.EvalPeriod() / accounting.SamplePeriod)
	if evalEvery < 1 {
		evalEvery = 1
	}
	ticks := 0
	k.Every(accounting.SamplePeriod, func() {
		acct.Sample()
		if ticks++; ticks%evalEvery == 0 {
			acct.Evaluate()
		}
	})
	tb.Accountant = acct
	return acct
}

// EnableSelfHealing turns on the Master's heartbeat failure detector,
// automatic node recovery, and passive per-backend switch health.
// Zero-valued cfg fields take the soda defaults. Attach once, before
// the first service.
func (tb *Testbed) EnableSelfHealing(cfg soda.HealthConfig) {
	tb.mustAttach("EnableSelfHealing", tb.Master.HealthEnabled())
	tb.Master.EnableHealth(cfg)
}

// EnableHA builds the warm-standby control plane: a second Master on
// its own machine (StandbyIP), the crash-consistent journal on the
// primary with frame-streaming to the standby, and the lease/epoch
// failover protocol. A flight recorder or chaos injector is wired to
// the standby and the cluster whether it is attached before or after
// HA. Attach once, before the first service.
func (tb *Testbed) EnableHA(cfg soda.HAConfig) (*soda.Cluster, error) {
	tb.mustAttach("EnableHA", tb.Cluster != nil)
	nic, err := tb.Net.Attach("standby", 100)
	if err != nil {
		return nil, err
	}
	if err := nic.AddIP(StandbyIP); err != nil {
		return nil, err
	}
	standby, err := soda.NewMaster(tb.Net, StandbyIP, tb.Daemons)
	if err != nil {
		return nil, err
	}
	standby.Instrument(tb.Registry, nil)
	if tb.FlightLog != nil {
		standby.SetFlightLogger(tb.FlightLog)
	}
	cluster, err := soda.NewCluster(tb.Net, tb.Master, standby, cfg)
	if err != nil {
		return nil, err
	}
	cluster.Instrument(tb.Registry)
	if tb.Chaos != nil {
		tb.Chaos.SetCluster(cluster)
	}
	tb.Standby, tb.Cluster = standby, cluster
	return cluster, nil
}

// AutoscaleOptions parameterises EnableAutoscaling.
type AutoscaleOptions struct {
	// TickEvery is the control-loop cadence (default 1s).
	TickEvery sim.Duration
}

// EnableAutoscaling starts the demand-driven control loop: a kernel
// timer ticks the Master's autoscaler at a fixed period, and every
// service whose spec carries an enabled autoscale policy is driven
// toward its target utilization (scale-up on burn/drops, scaled down
// in troughs under hysteresis and cooldowns). The loop's utilization
// and burn-rate signals come from accounting, so EnableAccounting must
// come first; request tracing and chaos remain optional extras. The
// tick self-routes to the cluster leader, so under HA the same timer
// keeps driving whichever Master currently holds the lease. Call it
// once; unlike the other attaches it may follow service creation,
// since it only starts a ticker.
func (tb *Testbed) EnableAutoscaling(opt AutoscaleOptions) {
	switch {
	case tb.autoscaling:
		panic("hup: EnableAutoscaling called twice")
	case tb.Accountant == nil:
		panic("hup: EnableAutoscaling before EnableAccounting; the loop reads its signals from the accountant")
	}
	tb.autoscaling = true
	tick := opt.TickEvery
	if tick <= 0 {
		tick = sim.Second
	}
	master := tb.Master
	tb.K.Every(tick, func() { master.AutoscaleTick() })
}

// AutoscalingEnabled reports whether EnableAutoscaling has run.
func (tb *Testbed) AutoscalingEnabled() bool { return tb.autoscaling }

// LeaderMaster returns the Master currently holding the leadership
// lease — the primary when HA is off or no failover has happened, the
// adopted standby after one. Surfaces that read control-loop or
// service state should consult it rather than Master directly.
func (tb *Testbed) LeaderMaster() *soda.Master {
	if tb.Cluster != nil {
		return tb.Cluster.Leader()
	}
	return tb.Master
}

// EnableChunkDistribution turns on cooperative content-addressed image
// distribution: every daemon gains a chunk store and serve path, and the
// Master acts as the tracker planning multi-source chunk fetches. A
// zero config takes the defaults. Attach once, before the first
// service.
func (tb *Testbed) EnableChunkDistribution(cfg soda.ChunkDistConfig) {
	tb.mustAttach("EnableChunkDistribution", tb.Master.ChunkDistributionEnabled())
	tb.Master.EnableChunkDistribution(cfg)
}

// EnableChaos attaches a fault injector to the testbed. Its randomness
// derives from seed alone — independent of the testbed's main RNG
// stream, so a chaos run's fault-free prefix is identical to the same
// run without chaos. Attach once, before the first service.
func (tb *Testbed) EnableChaos(seed uint64) *chaos.Injector {
	tb.mustAttach("EnableChaos", tb.Chaos != nil)
	tb.Chaos = chaos.New(chaos.Config{
		Kernel:  tb.K,
		Net:     tb.Net,
		Master:  tb.Master,
		Daemons: tb.Daemons,
		Repo:    tb.Repo,
		Cluster: tb.Cluster,
		Seed:    seed,
	})
	return tb.Chaos
}

// Flight recorder cadences: the metric-snapshot heartbeat and the
// incident seal check.
const (
	flightCaptureEvery = sim.Second
	flightTickEvery    = 250 * sim.Millisecond
)

// EnableFlightRecorder builds the black-box flight recorder on the
// kernel's virtual clock, with the flight package's default ring and
// incident shape, and wires it through the control plane: a structured
// logger on the Master (propagated to daemons, switches, health, and
// accounting), an event observer turning every SODA event into a ring
// record, automatic incident triggers on SLO violations and host
// failures, and kernel timers for metric snapshots and incident
// sealing. Bundles carry metric deltas and span subtrees.
// Deterministic: timestamps come from virtual time, so same-seed runs
// produce byte-identical incident bundles. Attach once, before the
// first service.
func (tb *Testbed) EnableFlightRecorder() (*flight.Recorder, *flight.Logger) {
	tb.mustAttach("EnableFlightRecorder", tb.Flight != nil)
	k := tb.K
	master := tb.Master
	rec := flight.NewRecorder(flight.Options{
		Clock:   func() time.Duration { return k.Now().Duration() },
		Metrics: tb.Registry.Snapshot,
		Spans:   tb.Tracer.Roots,
		Routes: func() []flight.RouteTable {
			var out []flight.RouteTable
			for _, name := range master.Services() {
				svc, ok := master.Service(name)
				if !ok || svc.Config == nil {
					continue
				}
				out = append(out, flight.RouteTable{Service: name, Table: svc.Config.Render()})
			}
			return out
		},
		Faults: func() []string {
			// Closure, not a bound snapshot: chaos may be enabled after
			// the recorder, and bundles should still list the schedule.
			if tb.Chaos == nil {
				return nil
			}
			faults := tb.Chaos.ActiveFaults()
			out := make([]string, len(faults))
			for i, f := range faults {
				out[i] = f.String()
			}
			return out
		},
		Traces: func(trigger, subject string) []reqtrace.Record {
			// SLO-violation bundles embed the violating service's
			// retained slow traces. Closure over the testbed: request
			// tracing may be enabled after the recorder (nil store and
			// nil collectors degrade to no traces).
			if trigger != "slo-violation" {
				return nil
			}
			return tb.ReqTraces.SlowTraces(subject, maxIncidentTraces)
		},
	})
	log := flight.NewLogger(rec)
	master.SetFlightLogger(log)
	if tb.Standby != nil {
		tb.Standby.SetFlightLogger(log)
	}

	// Every SODA event becomes one ring record under component "event",
	// carrying the trace of the operation it belongs to: the event is
	// the fact's only account in the ring (span trees reach incidents
	// through Spans). Failure-path events also open incidents, keyed per
	// subject so a multi-host outage captures one bundle per host while
	// a flapping host stays rate-limited.
	elog := log.Component("event")
	master.Observe(func(ev soda.Event) {
		msg := ev.Kind.String()
		level := flight.LevelInfo
		switch ev.Kind {
		case soda.EventRejected, soda.EventNodeFailed, soda.EventHostDead, soda.EventRecoveryFailed, soda.EventMasterDown:
			level = flight.LevelError
		case soda.EventHostSuspected, soda.EventSLOViolation:
			level = flight.LevelWarn
		case soda.EventAutoscale:
			// A blocked or failed capacity change is a warning.
			if strings.HasPrefix(ev.Detail, "blocked: ") || strings.Contains(ev.Detail, " failed: ") {
				level = flight.LevelWarn
			}
		}
		labels := make([]telemetry.Label, 0, 3)
		if ev.Service != "" {
			labels = append(labels, telemetry.L("service", ev.Service))
		}
		if ev.Node != "" {
			labels = append(labels, telemetry.L("node", ev.Node))
		}
		if ev.Detail != "" {
			labels = append(labels, telemetry.L("detail", ev.Detail))
		}
		tlog := elog.WithTrace(ev.Trace)
		switch level {
		case flight.LevelError:
			tlog.Error(msg, labels...)
		case flight.LevelWarn:
			tlog.Warn(msg, labels...)
		default:
			tlog.Info(msg, labels...)
		}
		switch ev.Kind {
		case soda.EventSLOViolation:
			rec.Trigger("slo-violation", ev.Service, ev.Detail)
		case soda.EventHostSuspected:
			rec.Trigger("host-suspected", ev.Node, ev.Detail)
		case soda.EventHostDead:
			rec.Trigger("host-dead", ev.Node, ev.Detail)
		case soda.EventNodeRecovered:
			rec.Trigger("node-recovered", ev.Service, ev.Detail)
		case soda.EventMasterDown:
			rec.Trigger("master-down", "master", ev.Detail)
		case soda.EventFailover:
			rec.Trigger("failover", "master", ev.Detail)
		case soda.EventAutoscale:
			// Capacity changes are exactly the context a post-hoc
			// investigation wants around a load event; failures and
			// blocks are recorded as warnings above.
			rec.Trigger("autoscale", ev.Service, ev.Detail)
		}
	})

	k.Every(flightCaptureEvery, rec.CaptureMetrics)
	k.Every(flightTickEvery, rec.Tick)

	tb.Flight, tb.FlightLog = rec, log
	return rec, log
}

// MustNew is New, panicking on error; for benchmarks and examples.
func MustNew(cfg Config) *Testbed {
	tb, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return tb
}

// AddClient attaches one client machine to the LAN and returns its
// address.
func (tb *Testbed) AddClient() simnet.IP {
	tb.clients++
	name := fmt.Sprintf("client-%d", tb.clients)
	ip := simnet.IP(fmt.Sprintf("128.10.7.%d", tb.clients))
	nic := tb.Net.MustAttach(name, 100)
	if err := nic.AddIP(ip); err != nil {
		panic(err)
	}
	return ip
}

// Publish stores an image in the ASP repository.
func (tb *Testbed) Publish(im *image.Image) error { return tb.Repo.Publish(im) }

// CreateService runs a creation request through the Agent with the given
// credential and blocks the simulation until it settles, returning the
// active service. It is the synchronous convenience used by tests,
// examples, and benchmarks.
func (tb *Testbed) CreateService(credential string, spec soda.ServiceSpec) (*soda.Service, error) {
	var svc *soda.Service
	err := tb.settle(fmt.Sprintf("service creation for %q", spec.Name), func(done func(error)) {
		tb.Agent.ServiceCreation(credential, spec,
			func(s *soda.Service) { svc = s; done(nil) }, done)
	})
	return svc, err
}

// Resize runs a resizing request synchronously.
func (tb *Testbed) Resize(credential, name string, newN int) (*soda.Service, error) {
	var svc *soda.Service
	err := tb.settle(fmt.Sprintf("resize of %q", name), func(done func(error)) {
		tb.Agent.ServiceResizing(credential, name, newN,
			func(s *soda.Service) { svc = s; done(nil) }, done)
	})
	return svc, err
}

// Teardown runs a tear-down request synchronously.
func (tb *Testbed) Teardown(credential, name string) error {
	return tb.settle(fmt.Sprintf("teardown of %q", name), func(done func(error)) {
		tb.Agent.ServiceTeardown(credential, name, func() { done(nil) }, done)
	})
}

// settle issues one asynchronous request and steps the kernel a virtual
// second at a time until its callback fires, returning the request's
// error — or, when the event queue drains first, an error naming what
// never settled.
func (tb *Testbed) settle(what string, issue func(done func(error))) error {
	var (
		serr    error
		settled bool
	)
	issue(func(err error) { serr, settled = err, true })
	for !settled && tb.K.Pending() > 0 {
		tb.K.RunFor(sim.Second)
	}
	if !settled {
		return fmt.Errorf("hup: %s never settled", what)
	}
	return serr
}
