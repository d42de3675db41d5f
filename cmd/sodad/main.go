// Command sodad runs a simulated Hosting Utility Platform with its SODA
// control plane and serves the SODA API (§4.1) over real HTTP, so live
// clients — cmd/sodactl, curl — can create, resize, and tear down
// application services against it.
//
// Usage:
//
//	sodad -listen :7083 -asp bio-institute -credential genome-key
//
// The HUP is the paper's testbed (seattle + tacoma on a 100 Mbps LAN)
// unless -hosts changes it.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"

	"repro/internal/accounting"
	"repro/internal/api"
	"repro/internal/flight"
	"repro/internal/hostos"
	"repro/internal/hup"
	"repro/internal/reqtrace"
	"repro/internal/soda"
	"repro/internal/telemetry"
)

func main() {
	listen := flag.String("listen", ":7083", "address to serve the SODA API on")
	asp := flag.String("asp", "demo-asp", "ASP account name to enroll")
	credential := flag.String("credential", "demo-key", "credential for the enrolled ASP")
	hosts := flag.Int("hosts", 2, "number of HUP hosts (1 = seattle only, 2 = paper testbed, >2 adds tacoma clones)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	configPath := flag.String("config", "", "JSON scenario file describing the HUP (overrides -hosts/-seed)")
	p2p := flag.Bool("p2p", false, "enable cooperative chunked image distribution (chunk stores + Master tracker; adds /images)")
	chaosFlag := flag.Bool("chaos", false, "enable self-healing and attach the fault injector (adds /faults)")
	ha := flag.Bool("ha", false, "enable control-plane HA: state journaling and a warm-standby Master (/healthz reports role, epoch, and journal lag)")
	autoscaleFlag := flag.Bool("autoscale", false, "enable the demand-driven autoscaling control loop for services created with an autoscale policy (adds /autoscale)")
	logLevel := flag.String("log-level", "info", "minimum console log level (debug|info|warn|error)")
	flag.Parse()

	// Console logger for the daemon's own diagnostics; once the testbed
	// is up it is superseded by the flight recorder's logger, which both
	// captures to the black-box ring and echoes here.
	boot := flight.NewConsole(os.Stderr).Component("sodad")
	fatal := func(format string, args ...any) {
		boot.Errorf(format, args...)
		os.Exit(1)
	}

	var cfg hup.Config
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			fatal("%v", err)
		}
		cfg, err = hup.LoadConfig(f)
		f.Close()
		if err != nil {
			fatal("%v", err)
		}
	} else {
		var specs []hostos.Spec
		switch {
		case *hosts <= 1:
			specs = []hostos.Spec{hostos.Seattle()}
		case *hosts == 2:
			specs = []hostos.Spec{hostos.Seattle(), hostos.Tacoma()}
		default:
			specs = []hostos.Spec{hostos.Seattle(), hostos.Tacoma()}
			for i := 2; i < *hosts; i++ {
				extra := hostos.Tacoma()
				extra.Name = fmt.Sprintf("tacoma-%d", i)
				specs = append(specs, extra)
			}
		}
		cfg = hup.Config{Hosts: specs, Seed: *seed}
	}
	tb, err := hup.New(cfg)
	if err != nil {
		fatal("building HUP: %v", err)
	}
	if *p2p {
		tb.EnableChunkDistribution(soda.ChunkDistConfig{})
	}
	if err := tb.Agent.RegisterASP(*asp, *credential); err != nil {
		fatal("enrolling ASP: %v", err)
	}
	// hup.New built the metrics registry and virtual-clock tracer over
	// the whole control plane; /metrics and /trace serve them. Every
	// feature below attaches once, before the first service.
	//
	// Black-box flight recorder: structured logs from every subsystem
	// captured to a ring, incidents auto-frozen on SLO violations and
	// host failures; /logs and /incidents serve them. The logger echoes
	// to stderr, replacing the old raw event-stream prints.
	_, flog := tb.EnableFlightRecorder()
	min, err := flight.ParseLevel(*logLevel)
	if err != nil {
		fatal("%v", err)
	}
	flog.SetMinLevel(min)
	flog.SetConsole(os.Stderr)
	// Per-service metering, billing, and SLO evaluation; /usage serves
	// the reports and violations land in the flight ring above.
	tb.EnableAccounting(accounting.Options{})
	// Tail-sampled per-request data-plane traces: slow/errored/retried
	// requests (plus a deterministic head sample) are retained with
	// per-stage latency attribution; /traces serves them, histogram
	// exemplars and SLO-violation incident bundles point into them.
	tb.EnableRequestTracing(reqtrace.Config{})
	if *chaosFlag {
		// Heartbeat failure detector, automatic node recovery, and the
		// fault injector; /faults serves the detector state, standing
		// faults, and recovery history.
		tb.EnableSelfHealing(soda.HealthConfig{})
		tb.EnableChaos(*seed)
	}
	if *ha {
		// Crash-consistent Master journal + warm standby with epoch-fenced
		// takeover; /healthz reports the cluster's readiness.
		if _, err := tb.EnableHA(soda.HAConfig{}); err != nil {
			fatal("enabling HA: %v", err)
		}
	}
	if *autoscaleFlag {
		// The closed loop reading utilization, SLO burn, drops, and slow
		// traces, driving SODA_service_resizing; /autoscale serves its
		// state. It reads its signals from the accountant attached above;
		// each tick routes itself to the current leader under HA.
		tb.EnableAutoscaling(hup.AutoscaleOptions{})
	}

	srv := api.NewServer(tb)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	// Profiling endpoints for the daemon process itself.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	boot.Info("HUP up; serving SODA API",
		telemetry.L("hosts", fmt.Sprintf("%d", len(tb.Hosts))),
		telemetry.L("listen", *listen),
		telemetry.L("asp", *asp))
	addr := *listen
	if strings.HasPrefix(addr, ":") {
		addr = "localhost" + addr
	}
	boot.Infof("try: curl -s -X POST %s/v1/images -d '{\"name\":\"web\",\"size_mb\":30}'", addr)
	boot.Infof("metrics on %s/metrics, spans on %s/trace, usage on %s/usage, logs on %s/logs, incidents on %s/incidents",
		addr, addr, addr, addr, addr)
	boot.Infof("request traces (tail-sampled, per-stage latency) on %s/traces", addr)
	if *chaosFlag {
		boot.Infof("self-healing on; fault state and recovery history on %s/faults", addr)
	}
	if *p2p {
		boot.Infof("cooperative chunk distribution on; stores and holder map on %s/images", addr)
	}
	if *ha {
		boot.Infof("control-plane HA on; role, epoch, and journal lag on %s/healthz", addr)
	}
	if *autoscaleFlag {
		boot.Infof("autoscaling on; pass \"autoscale\" in service creation, controller state on %s/autoscale", addr)
	}
	if err := http.ListenAndServe(*listen, mux); err != nil {
		fatal("%v", err)
	}
}
