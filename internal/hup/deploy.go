package hup

import (
	"sort"
	"time"

	"repro/internal/appsvc"
	"repro/internal/cycles"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/soda"
	"repro/internal/svcswitch"
	"repro/internal/uml"
)

// WebDeployment instantiates the web content service on every node SODA
// primes for it and keeps per-node measurement hooks — the
// instrumentation behind Figures 4 and 6.
type WebDeployment struct {
	// Params is the service's request cost model.
	Params appsvc.WebParams

	tb *Testbed
	// services maps node name → the node's service instance.
	services map[string]*appsvc.WebService
	// latency maps node name → server-side response time summary
	// (forward received → response delivered).
	latency map[string]*metrics.DurationSummary
}

// NewWebDeployment prepares a web content deployment on the testbed.
func NewWebDeployment(tb *Testbed, params appsvc.WebParams) *WebDeployment {
	return &WebDeployment{
		Params:   params,
		tb:       tb,
		services: make(map[string]*appsvc.WebService),
		latency:  make(map[string]*metrics.DurationSummary),
	}
}

// Behavior returns the soda.Behavior that wires one service instance per
// primed node.
func (wd *WebDeployment) Behavior() soda.Behavior {
	return func(g *uml.Guest) svcswitch.Handler {
		ws := appsvc.NewWebService(wd.tb.Net, &appsvc.GuestBackend{G: g}, wd.Params, wd.tb.RNG.Split())
		wd.services[g.NodeName] = ws
		th := &timedHandler{k: wd.tb.K, ws: ws}
		wd.latency[g.NodeName] = &th.lat
		return th.handle
	}
}

// timedHandler is one node's handler: it serves each request through the
// node's web service and observes its server-side response time.
// Requests are pooled ops whose completion is bound once.
type timedHandler struct {
	k    *sim.Kernel
	ws   *appsvc.WebService
	lat  metrics.DurationSummary
	free sim.FreeList[timedReq]
}

// timedReq is one request in a timedHandler. It returns to the pool when
// its response is delivered; a request the service loses leaves it to
// the garbage collector.
type timedReq struct {
	th     *timedHandler
	start  sim.Time
	onDone func()
	done   func() // r.delivered, bound once
}

func (th *timedHandler) handle(clientIP simnet.IP, onDone func()) bool {
	r := th.free.Get()
	if r == nil {
		r = &timedReq{th: th}
		r.done = r.delivered
	}
	r.start, r.onDone = th.k.Now(), onDone
	if !th.ws.HandleRequest(clientIP, r.done) {
		th.put(r)
		return false
	}
	return true
}

func (th *timedHandler) put(r *timedReq) {
	r.onDone = nil
	th.free.Put(r)
}

func (r *timedReq) delivered() {
	th := r.th
	th.lat.ObserveDuration(time.Duration(th.k.Now().Sub(r.start)))
	fn := r.onDone
	th.put(r)
	if fn != nil {
		fn()
	}
}

// Nodes returns the deployed node names, sorted.
func (wd *WebDeployment) Nodes() []string {
	out := make([]string, 0, len(wd.services))
	for n := range wd.services {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Service returns a node's service instance.
func (wd *WebDeployment) Service(node string) *appsvc.WebService { return wd.services[node] }

// Latency returns a node's server-side response-time summary.
func (wd *WebDeployment) Latency(node string) *metrics.DurationSummary { return wd.latency[node] }

// HoneypotDeployment instantiates the paper's honeypot service: the node
// runs a vulnerable victim server, addressed directly by attackers.
type HoneypotDeployment struct {
	tb *Testbed
	// honeypots maps node name → the victim wrapper.
	honeypots map[string]*appsvc.HoneypotService
}

// NewHoneypotDeployment prepares a honeypot deployment.
func NewHoneypotDeployment(tb *Testbed) *HoneypotDeployment {
	return &HoneypotDeployment{tb: tb, honeypots: make(map[string]*appsvc.HoneypotService)}
}

// Behavior wires one victim per node. The honeypot serves no legitimate
// requests, so the bound handler rejects routed traffic; attackers hit
// the node's address directly.
func (hd *HoneypotDeployment) Behavior() soda.Behavior {
	return func(g *uml.Guest) svcswitch.Handler {
		hd.honeypots[g.NodeName] = appsvc.NewHoneypot(hd.tb.Net, g)
		return nil
	}
}

// Victim returns a node's honeypot wrapper.
func (hd *HoneypotDeployment) Victim(node string) *appsvc.HoneypotService { return hd.honeypots[node] }

// Victims returns the node names with victims, sorted.
func (hd *HoneypotDeployment) Victims() []string {
	out := make([]string, 0, len(hd.honeypots))
	for n := range hd.honeypots {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CompDeployment runs the resource-isolation experiment's comp load:
// spinner processes doing "infinite loop[s] of dummy arithmetic
// operations" inside their node.
type CompDeployment struct {
	// Spinners is the number of spinning processes per node.
	Spinners int
	// Jobs maps node name → the started job.
	Jobs map[string]*appsvc.CompJob
}

// NewCompDeployment prepares a comp deployment with n spinners per node.
func NewCompDeployment(n int) *CompDeployment {
	return &CompDeployment{Spinners: n, Jobs: make(map[string]*appsvc.CompJob)}
}

// Behavior wires the spinners into each primed node.
func (cd *CompDeployment) Behavior() soda.Behavior {
	return func(g *uml.Guest) svcswitch.Handler {
		cd.Jobs[g.NodeName] = appsvc.StartComp(g, cd.Spinners)
		return nil
	}
}

// LogDeployment runs the experiment's log load: continuous formatted
// disk writes.
type LogDeployment struct {
	// RecordBytes and FormatCycles parameterise each log record.
	RecordBytes  int64
	FormatCycles cycles.Cycles
	// Jobs maps node name → the started job.
	Jobs map[string]*appsvc.LogJob
}

// NewLogDeployment prepares a log deployment. The defaults (32 KiB
// records, 2 M cycles of formatting, buffered writes) give the logger a
// continuous CPU demand above an equal third of tacoma's CPU, as the
// Figure 5 experiment requires.
func NewLogDeployment() *LogDeployment {
	return &LogDeployment{RecordBytes: 32 << 10, FormatCycles: 2e6, Jobs: make(map[string]*appsvc.LogJob)}
}

// Behavior wires the write loop into each primed node.
func (ld *LogDeployment) Behavior() soda.Behavior {
	return func(g *uml.Guest) svcswitch.Handler {
		ld.Jobs[g.NodeName] = appsvc.StartLog(g, ld.RecordBytes, ld.FormatCycles)
		return nil
	}
}

// SwitchTarget adapts a service's switch to the workload.Target shape.
type SwitchTarget struct {
	// Switch is the service switch requests enter through.
	Switch *svcswitch.Switch
}

// Route implements the workload generator's target contract.
func (t SwitchTarget) Route(clientIP simnet.IP, bytes int64, onDone func()) error {
	return t.Switch.Route(svcswitch.Request{ClientIP: clientIP, Bytes: bytes, OnDone: onDone})
}
