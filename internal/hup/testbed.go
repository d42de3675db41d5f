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

	// Registry and Tracer are nil until EnableTelemetry.
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
	return tb, nil
}

// EnableTelemetry builds a metrics registry and a tracer on the
// kernel's virtual clock and wires them through the whole control
// plane: the Master (admission counters, priming span trees, switch
// instrumentation for every service created afterwards) and each
// Daemon (stage histograms, node gauges). Returns the registry and
// tracer, which are also kept on the Testbed for exposition.
func (tb *Testbed) EnableTelemetry() (*telemetry.Registry, *telemetry.Tracer) {
	if tb.Registry != nil {
		return tb.Registry, tb.Tracer
	}
	reg := telemetry.NewRegistry()
	k := tb.K
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
	return reg, tracer
}

// maxIncidentTraces bounds how many retained slow traces an
// SLO-violation incident bundle embeds.
const maxIncidentTraces = 32

// EnableRequestTracing builds the tail-sampling per-request trace
// store and attaches it to the Master: every service switch — existing
// and future — gets a per-service collector whose slow-retention
// threshold derives from the service's SLO latency target (cfg's
// SlowThreshold when the service has none). Trace IDs share the
// telemetry exemplar namespace, so latency exemplars point at retained
// records, resolvable via /traces/{id}. Retention is deterministic:
// under the virtual clock, same-seed runs keep byte-identical rings.
// Telemetry is enabled implicitly so the sampler's counters register.
// Idempotent; the config of the first call wins.
func (tb *Testbed) EnableRequestTracing(cfg reqtrace.Config) *reqtrace.Store {
	if tb.ReqTraces != nil {
		return tb.ReqTraces
	}
	reg, _ := tb.EnableTelemetry()
	st := reqtrace.NewStore(cfg, reg)
	tb.Master.EnableRequestTracing(st)
	tb.ReqTraces = st
	return st
}

// EnableAccounting builds the usage-metering and SLO-evaluation
// subsystem on the kernel's virtual clock, attaches it to the Master
// (services watched on activation, violations surfaced as events), and
// schedules the sampling and evaluation ticks on the kernel. Telemetry
// is enabled implicitly so usage and burn-rate gauges have a registry.
// opt's Clock is overridden with the kernel clock; zero-valued fields
// take the accounting defaults.
func (tb *Testbed) EnableAccounting(opt accounting.Options) *accounting.Accountant {
	if tb.Accountant != nil {
		return tb.Accountant
	}
	reg, tracer := tb.EnableTelemetry()
	k := tb.K
	opt.Clock = func() sim.Time { return k.Now() }
	opt.Registry = reg
	opt.Tracer = tracer
	acct := accounting.New(opt)
	tb.Master.EnableAccounting(acct)
	// One combined ticker drives both sampling and evaluation: a single
	// standing timer keeps the kernel's event heap shallow for the
	// routing hot path, and evaluations always see a fresh sample.
	evalEvery := int(acct.EvalPeriod() / acct.SamplePeriod())
	if evalEvery < 1 {
		evalEvery = 1
	}
	ticks := 0
	k.Every(acct.SamplePeriod(), func() {
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
// Telemetry is enabled implicitly so recovery counters and MTTR
// histograms have a registry. Zero-valued cfg fields take the soda
// defaults.
func (tb *Testbed) EnableSelfHealing(cfg soda.HealthConfig) {
	tb.EnableTelemetry()
	tb.Master.EnableHealth(cfg)
}

// EnableHA builds the warm-standby control plane: a second Master on
// its own machine (StandbyIP), the crash-consistent journal on the
// primary with frame-streaming to the standby, and the lease/epoch
// failover protocol. Telemetry is enabled implicitly so the failover
// counter, MTTR histogram, and journal gauges have a registry; a
// flight recorder or chaos injector enabled earlier is wired through.
// Idempotent; the config of the first call wins.
func (tb *Testbed) EnableHA(cfg soda.HAConfig) (*soda.Cluster, error) {
	if tb.Cluster != nil {
		return tb.Cluster, nil
	}
	reg, _ := tb.EnableTelemetry()
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
	standby.Instrument(reg, nil)
	if tb.FlightLog != nil {
		standby.SetFlightLogger(tb.FlightLog)
	}
	cluster, err := soda.NewCluster(tb.Net, tb.Master, standby, cfg)
	if err != nil {
		return nil, err
	}
	cluster.Instrument(reg)
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
// toward its target utilization (ISSUE: scale-up on burn/drops, scaled
// down in troughs under hysteresis and cooldowns). Accounting is
// enabled implicitly — the loop's utilization and burn-rate signals
// come from it; request tracing and chaos remain optional extras.
// The tick self-routes to the cluster leader, so under HA the same
// timer keeps driving whichever Master currently holds the lease.
// Idempotent; the cadence of the first call wins.
func (tb *Testbed) EnableAutoscaling(opt AutoscaleOptions) {
	if tb.autoscaling {
		return
	}
	tb.autoscaling = true
	tb.EnableAccounting(accounting.Options{})
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
// Master acts as the tracker planning multi-source chunk fetches.
// Idempotent; a zero config takes the defaults.
func (tb *Testbed) EnableChunkDistribution(cfg soda.ChunkDistConfig) {
	tb.Master.EnableChunkDistribution(cfg)
}

// EnableChaos attaches a fault injector to the testbed. Its randomness
// derives from seed alone — independent of the testbed's main RNG
// stream, so a chaos run's fault-free prefix is identical to the same
// run without chaos. Idempotent; the seed of the first call wins.
func (tb *Testbed) EnableChaos(seed uint64) *chaos.Injector {
	if tb.Chaos != nil {
		return tb.Chaos
	}
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

// FlightOptions parameterises EnableFlightRecorder. Zero values take
// the flight package defaults plus the tick cadences below.
type FlightOptions struct {
	// Ring and incident shape; zero-valued fields take flight defaults.
	Capacity           int
	PreRecords         int
	PostWindow         sim.Duration
	Cooldown           sim.Duration
	MaxIncidents       int
	MaxIncidentRecords int
	// CaptureEvery is the metric-snapshot heartbeat (default 1s).
	CaptureEvery sim.Duration
	// TickEvery is the incident seal-check cadence (default 250ms).
	TickEvery sim.Duration
}

// EnableFlightRecorder builds the black-box flight recorder on the
// kernel's virtual clock and wires it through the control plane: a
// structured logger on the Master (propagated to daemons, switches,
// health, and accounting), an event observer turning every SODA event
// into a ring record, automatic incident triggers on SLO violations
// and host failures, and kernel timers for metric snapshots and
// incident sealing. Telemetry is enabled implicitly so bundles carry
// metric deltas and span subtrees. Deterministic: timestamps come from
// virtual time, so same-seed runs produce byte-identical incident
// bundles. Idempotent; the options of the first call win.
func (tb *Testbed) EnableFlightRecorder(opt FlightOptions) (*flight.Recorder, *flight.Logger) {
	if tb.Flight != nil {
		return tb.Flight, tb.FlightLog
	}
	reg, tracer := tb.EnableTelemetry()
	k := tb.K
	master := tb.Master
	rec := flight.NewRecorder(flight.Options{
		Clock:              func() time.Duration { return k.Now().Duration() },
		Capacity:           opt.Capacity,
		PreRecords:         opt.PreRecords,
		PostWindow:         time.Duration(opt.PostWindow),
		Cooldown:           time.Duration(opt.Cooldown),
		MaxIncidents:       opt.MaxIncidents,
		MaxIncidentRecords: opt.MaxIncidentRecords,
		Metrics:            reg.Snapshot,
		Spans:              tracer.Roots,
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

	// Every SODA event becomes a ring record; failure-path events also
	// open incidents, keyed per subject so a multi-host outage captures
	// one bundle per host while a flapping host stays rate-limited.
	master.Observe(func(ev soda.Event) {
		msg := ev.Kind.String()
		level := flight.LevelInfo
		switch ev.Kind {
		case soda.EventRejected, soda.EventNodeFailed, soda.EventHostDead, soda.EventRecoveryFailed, soda.EventMasterDown:
			level = flight.LevelError
		case soda.EventHostSuspected, soda.EventSLOViolation:
			level = flight.LevelWarn
		case soda.EventSpanEnded:
			level = flight.LevelDebug
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
		elog := log.Component("event")
		switch level {
		case flight.LevelError:
			elog.Error(msg, labels...)
		case flight.LevelWarn:
			elog.Warn(msg, labels...)
		case flight.LevelDebug:
			elog.Debug(msg, labels...)
		default:
			elog.Info(msg, labels...)
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
			// blocks double as warnings above.
			rec.Trigger("autoscale", ev.Service, ev.Detail)
		}
	})

	capture := opt.CaptureEvery
	if capture <= 0 {
		capture = sim.Second
	}
	tick := opt.TickEvery
	if tick <= 0 {
		tick = 250 * sim.Millisecond
	}
	k.Every(capture, rec.CaptureMetrics)
	k.Every(tick, rec.Tick)

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
	var (
		svc  *soda.Service
		serr error
		done bool
	)
	tb.Agent.ServiceCreation(credential, spec,
		func(s *soda.Service) { svc, done = s, true },
		func(err error) { serr, done = err, true })
	for !done && tb.K.Pending() > 0 {
		tb.K.RunFor(sim.Second)
	}
	if !done {
		return nil, fmt.Errorf("hup: service creation for %q never settled", spec.Name)
	}
	return svc, serr
}

// Resize runs a resizing request synchronously.
func (tb *Testbed) Resize(credential, name string, newN int) (*soda.Service, error) {
	var (
		svc  *soda.Service
		serr error
		done bool
	)
	tb.Agent.ServiceResizing(credential, name, newN,
		func(s *soda.Service) { svc, done = s, true },
		func(err error) { serr, done = err, true })
	for !done && tb.K.Pending() > 0 {
		tb.K.RunFor(sim.Second)
	}
	if !done {
		return nil, fmt.Errorf("hup: resize of %q never settled", name)
	}
	return svc, serr
}

// Teardown runs a tear-down request synchronously.
func (tb *Testbed) Teardown(credential, name string) error {
	var (
		serr error
		done bool
	)
	tb.Agent.ServiceTeardown(credential, name,
		func() { done = true },
		func(err error) { serr, done = err, true })
	for !done && tb.K.Pending() > 0 {
		tb.K.RunFor(sim.Second)
	}
	if !done {
		return fmt.Errorf("hup: teardown of %q never settled", name)
	}
	return serr
}
