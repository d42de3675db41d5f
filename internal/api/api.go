// Package api exposes the SODA control plane — SODA_service_creation,
// SODA_service_teardown, SODA_service_resizing (§4.1) — as a JSON/HTTP
// service in front of a HUP testbed. cmd/sodad serves it; cmd/sodactl is
// its command-line client. Incoming calls drive the simulated HUP's
// virtual clock forward until the operation settles, so a live HTTP
// client observes the same admission decisions, placements, and
// configuration files the simulation produces.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/accounting"
	"repro/internal/appsvc"
	"repro/internal/autoscale"
	"repro/internal/flight"
	"repro/internal/hup"
	"repro/internal/image"
	"repro/internal/soda"
	"repro/internal/svcswitch"
	"repro/internal/workload"
)

// MachineConfig is the wire form of the paper's M tuple.
type MachineConfig struct {
	CPUMHz        int     `json:"cpu_mhz"`
	MemoryMB      int     `json:"memory_mb"`
	DiskMB        int     `json:"disk_mb"`
	BandwidthMbps float64 `json:"bandwidth_mbps"`
}

// CreateRequest is the body of POST /v1/services.
type CreateRequest struct {
	Credential string        `json:"credential"`
	Name       string        `json:"name"`
	Image      string        `json:"image"`
	N          int           `json:"n"`
	M          MachineConfig `json:"m"`
	// DatasetMB sizes the web content service's dataset (the default
	// behaviour bound to API-created services).
	DatasetMB int `json:"dataset_mb"`
	// SLO objectives; all optional. A latency target is judged at p99.
	SLOLatencyP99Ms float64 `json:"slo_latency_p99_ms"`
	SLOAvailability float64 `json:"slo_availability"`
	SLOMinCPUMHz    float64 `json:"slo_min_cpu_mhz"`
	// Autoscale is the demand-driven scaling policy in its stanza form
	// ("max=4 target=0.7 up=30s ..."); empty leaves the service unscaled.
	Autoscale string `json:"autoscale,omitempty"`
}

// SLO converts the request's objective fields to the switch's SLO form.
func (r CreateRequest) SLO() svcswitch.SLO {
	s := svcswitch.SLO{
		Availability: r.SLOAvailability,
		MinCPUMHz:    r.SLOMinCPUMHz,
	}
	if r.SLOLatencyP99Ms > 0 {
		s.LatencyTarget = time.Duration(r.SLOLatencyP99Ms * float64(time.Millisecond))
		s.LatencyQuantile = 0.99
	}
	return s
}

// ResizeRequest is the body of POST /v1/services/{name}/resize.
type ResizeRequest struct {
	Credential string `json:"credential"`
	N          int    `json:"n"`
}

// PublishRequest is the body of POST /v1/images: it builds and publishes
// a synthetic web-content image of the requested size.
type PublishRequest struct {
	Credential string `json:"credential"`
	Name       string `json:"name"`
	SizeMB     int    `json:"size_mb"`
	DatasetMB  int    `json:"dataset_mb"`
}

// NodeView is the wire form of a created virtual service node.
type NodeView struct {
	Node        string  `json:"node"`
	Host        string  `json:"host"`
	IP          string  `json:"ip"`
	Port        int     `json:"port"`
	Capacity    int     `json:"capacity"`
	BootSec     float64 `json:"boot_sec"`
	DownloadSec float64 `json:"download_sec"`
	RAMDisk     bool    `json:"ram_disk"`
}

// ServiceView is the wire form of a hosted service.
type ServiceView struct {
	Name       string     `json:"name"`
	State      string     `json:"state"`
	Capacity   int        `json:"capacity"`
	Nodes      []NodeView `json:"nodes"`
	ConfigFile string     `json:"config_file"`
}

// HostView is the wire form of one HUP host's availability.
type HostView struct {
	Name          string  `json:"name"`
	CPUMHz        int     `json:"cpu_mhz_free"`
	MemoryMB      int     `json:"memory_mb_free"`
	DiskMB        int     `json:"disk_mb_free"`
	BandwidthMbps float64 `json:"bandwidth_mbps_free"`
	Nodes         int     `json:"nodes"`
}

// Server wires the HTTP API to a testbed. All handlers serialise on one
// mutex: the simulation kernel is single-threaded by design.
type Server struct {
	mu sync.Mutex
	tb *hup.Testbed
}

// NewServer wraps a testbed.
func NewServer(tb *hup.Testbed) *Server { return &Server{tb: tb} }

// Handler returns the API's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/images", s.handlePublish)
	mux.HandleFunc("POST /v1/services", s.handleCreate)
	mux.HandleFunc("GET /v1/services", s.handleList)
	mux.HandleFunc("GET /v1/services/{name}", s.handleGet)
	mux.HandleFunc("DELETE /v1/services/{name}", s.handleDelete)
	mux.HandleFunc("POST /v1/services/{name}/resize", s.handleResize)
	mux.HandleFunc("GET /v1/services/{name}/status", s.handleStatus)
	mux.HandleFunc("POST /v1/services/{name}/probe", s.handleProbe)
	mux.HandleFunc("GET /v1/hup", s.handleHUP)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /images", s.handleImages)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.HandleFunc("GET /usage", s.handleUsage)
	mux.HandleFunc("GET /faults", s.handleFaults)
	mux.HandleFunc("GET /logs", s.handleLogs)
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("GET /traces/{id}", s.handleTraceByID)
	mux.HandleFunc("GET /incidents", s.handleIncidents)
	mux.HandleFunc("GET /incidents/{id}", s.handleIncident)
	mux.HandleFunc("POST /incidents", s.handleTriggerIncident)
	mux.HandleFunc("GET /autoscale", s.handleAutoscale)
	return mux
}

// HealthzView is the body of GET /healthz: control-plane readiness.
// Always 200 — readiness is judged from the fields, not the code: a
// "degraded" status means the current leader is crash-stopped and (with
// HA enabled) a takeover is pending or in flight.
type HealthzView struct {
	Status string `json:"status"` // "ok" | "degraded"
	// HA reports whether a warm standby is armed.
	HA bool `json:"ha"`
	// Role is the primary Master's current role: "single" without HA,
	// else "leader" or "standby" (after a failover demoted it).
	Role string `json:"role"`
	// Leader names the master holding the lease: "primary" or "standby".
	Leader string `json:"leader,omitempty"`
	// Epoch is the current leadership epoch (0 without HA).
	Epoch uint64 `json:"epoch"`
	// JournalLag is how many records the standby's streamed journal copy
	// trails the durable log.
	JournalLag uint64 `json:"journal_lag"`
	// JournalBytes and JournalSeq size the durable journal.
	JournalBytes int    `json:"journal_bytes"`
	JournalSeq   uint64 `json:"journal_seq"`
	// Failovers counts completed takeovers; LastMTTRS is the most recent
	// control-plane mean-time-to-recovery in seconds.
	Failovers int     `json:"failovers"`
	LastMTTRS float64 `json:"last_failover_mttr_s,omitempty"`
}

// handleHealthz reports control-plane liveness and HA readiness:
// leadership role, epoch, journal lag, and the failover history.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	view := HealthzView{Status: "ok", Role: "single"}
	if s.tb.Master.Halted() {
		view.Status = "degraded"
	}
	if c := s.tb.Cluster; c != nil {
		view.HA = true
		view.Role = c.Role(s.tb.Master)
		view.Leader = "primary"
		if c.Leader() == s.tb.Standby {
			view.Leader = "standby"
		}
		view.Status = "ok"
		if c.Leader().Halted() {
			view.Status = "degraded"
		}
		view.Epoch = c.Epoch()
		view.JournalLag = c.JournalLag()
		view.JournalBytes = c.Journal().Size()
		view.JournalSeq = c.Journal().Seq()
		if fos := c.Failovers(); len(fos) > 0 {
			view.Failovers = len(fos)
			view.LastMTTRS = fos[len(fos)-1].MTTR.Seconds()
		}
	}
	writeJSON(w, http.StatusOK, view)
}

// HostHealthView is the wire form of the failure detector's view of one
// HUP host.
type HostHealthView struct {
	Host     string  `json:"host"`
	State    string  `json:"state"`
	LastBeat float64 `json:"last_beat_s"`
	Beats    int     `json:"beats"`
}

// RecoveryView is the wire form of one node replacement.
type RecoveryView struct {
	AtS        float64 `json:"at_s"`
	Service    string  `json:"service"`
	FailedNode string  `json:"failed_node"`
	FailedHost string  `json:"failed_host"`
	NewNode    string  `json:"new_node,omitempty"`
	NewHost    string  `json:"new_host,omitempty"`
	MTTRS      float64 `json:"mttr_s"`
	OK         bool    `json:"ok"`
	Detail     string  `json:"detail,omitempty"`
}

// FaultsView is the body of GET /faults: detector host states, standing
// injected faults, the injection log, and the recovery history. 404
// until self-healing is enabled.
type FaultsView struct {
	Hosts      []HostHealthView `json:"hosts"`
	Active     []string         `json:"active_faults,omitempty"`
	Injections []string         `json:"injections,omitempty"`
	Recoveries []RecoveryView   `json:"recoveries,omitempty"`
}

// handleFaults exposes the fault lifecycle: who is suspected or dead,
// what the chaos injector currently has broken, and every recovery the
// Master performed.
func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.tb.Master.HealthEnabled() {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: self-healing not enabled"))
		return
	}
	view := FaultsView{}
	for _, hh := range s.tb.Master.HostHealth() {
		view.Hosts = append(view.Hosts, HostHealthView{
			Host:     hh.Host,
			State:    hh.State.String(),
			LastBeat: hh.LastBeat.Seconds(),
			Beats:    hh.Beats,
		})
	}
	if inj := s.tb.Chaos; inj != nil {
		for _, f := range inj.ActiveFaults() {
			view.Active = append(view.Active, f.String())
		}
		for _, rec := range inj.History() {
			view.Injections = append(view.Injections, rec.String())
		}
	}
	for _, rec := range s.tb.Master.Recoveries() {
		view.Recoveries = append(view.Recoveries, RecoveryView{
			AtS:        rec.At.Seconds(),
			Service:    rec.Service,
			FailedNode: rec.FailedNode,
			FailedHost: rec.FailedHost,
			NewNode:    rec.NewNode,
			NewHost:    rec.NewHost,
			MTTRS:      rec.MTTR.Seconds(),
			OK:         rec.OK,
			Detail:     rec.Detail,
		})
	}
	writeJSON(w, http.StatusOK, view)
}

// LogsView is the body of GET /logs: the newest ring records plus
// recorder statistics. 404 until the flight recorder is enabled.
type LogsView struct {
	Records []flight.RecordView `json:"records"`
	Stats   flight.Stats        `json:"stats"`
}

// handleLogs exposes the flight recorder's ring buffer. ?n= bounds the
// tail (default 100), ?level= sets the minimum severity, ?component=
// narrows to one subsystem.
func (s *Server) handleLogs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.tb.Flight
	if rec == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: flight recorder not enabled"))
		return
	}
	q := r.URL.Query()
	n := 100
	if v := q.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("api: bad n %q", v))
			return
		}
		n = parsed
	}
	min := flight.LevelDebug
	if v := q.Get("level"); v != "" {
		parsed, err := flight.ParseLevel(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		min = parsed
	}
	writeJSON(w, http.StatusOK, LogsView{
		Records: rec.Tail(n, min, q.Get("component")),
		Stats:   rec.StatsNow(),
	})
}

// IncidentSummary is one row of GET /incidents; the full bundle hangs
// off GET /incidents/{id}.
type IncidentSummary struct {
	ID        string  `json:"id"`
	Trigger   string  `json:"trigger"`
	Subject   string  `json:"subject,omitempty"`
	Detail    string  `json:"detail,omitempty"`
	OpenedSec float64 `json:"opened_s"`
	SealedSec float64 `json:"sealed_s,omitempty"`
	Open      bool    `json:"open,omitempty"`
	Records   int     `json:"records"`
}

// IncidentsView is the body of GET /incidents.
type IncidentsView struct {
	Incidents []IncidentSummary `json:"incidents"`
	Stats     flight.Stats      `json:"stats"`
}

func (s *Server) handleIncidents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.tb.Flight
	if rec == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: flight recorder not enabled"))
		return
	}
	view := IncidentsView{Incidents: []IncidentSummary{}, Stats: rec.StatsNow()}
	for _, inc := range rec.Incidents() {
		view.Incidents = append(view.Incidents, IncidentSummary{
			ID:        inc.ID,
			Trigger:   inc.Trigger,
			Subject:   inc.Subject,
			Detail:    inc.Detail,
			OpenedSec: inc.OpenedSec,
			SealedSec: inc.SealedSec,
			Open:      inc.Open,
			Records:   len(inc.Records),
		})
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleIncident(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.tb.Flight
	if rec == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: flight recorder not enabled"))
		return
	}
	id := r.PathValue("id")
	inc := rec.Incident(id)
	if inc == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: no incident %q", id))
		return
	}
	writeJSON(w, http.StatusOK, inc)
}

// TriggerRequest is the body of POST /incidents: open an incident by
// hand — forensic capture of "something looks wrong right now".
type TriggerRequest struct {
	Trigger string `json:"trigger"`
	Subject string `json:"subject,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

func (s *Server) handleTriggerIncident(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.tb.Flight
	if rec == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: flight recorder not enabled"))
		return
	}
	var req TriggerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Trigger == "" {
		req.Trigger = "manual"
	}
	id := rec.Trigger(req.Trigger, req.Subject, req.Detail)
	if id == "" {
		writeErr(w, http.StatusTooManyRequests,
			fmt.Errorf("api: trigger %s/%s suppressed by cooldown", req.Trigger, req.Subject))
		return
	}
	// The incident stays open until the post window elapses on the
	// virtual clock (later API calls drive it); fetch it by id then.
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

// AutoscaleView is the body of GET /autoscale: every armed service's
// controller state, read from the current cluster leader.
type AutoscaleView struct {
	Services []soda.AutoscalerView `json:"services"`
}

// handleAutoscale reports the demand-driven control loop's state. 404
// until autoscaling is enabled.
func (s *Server) handleAutoscale(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.tb.AutoscalingEnabled() {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: autoscaling not enabled"))
		return
	}
	writeJSON(w, http.StatusOK, AutoscaleView{
		Services: s.tb.LeaderMaster().AutoscaleReport(),
	})
}

// AccountView is the wire form of an ASP's bill.
type AccountView struct {
	ASP             string   `json:"asp"`
	InstanceSeconds float64  `json:"instance_seconds"`
	CPUMHzSeconds   float64  `json:"cpu_mhz_seconds"`
	MemoryGBHours   float64  `json:"memory_gb_hours"`
	DiskGBHours     float64  `json:"disk_gb_hours"`
	NetworkGB       float64  `json:"network_gb"`
	OpenServices    []string `json:"open_services"`
}

// UsageView is the body of GET /usage: per-service metered usage plus
// per-ASP bills.
type UsageView struct {
	Services []accounting.ServiceUsage `json:"services"`
	Accounts []AccountView             `json:"accounts,omitempty"`
}

// handleUsage exposes the accounting subsystem: every watched service's
// windowed usage series, SLO state, and each ASP's resource-weighted
// bill. ?service= narrows to one service. 404 until accounting is
// enabled.
func (s *Server) handleUsage(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	acct := s.tb.Accountant
	if acct == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: accounting not enabled"))
		return
	}
	if name := r.URL.Query().Get("service"); name != "" {
		u, ok := acct.Usage(name)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("api: no metered service %q", name))
			return
		}
		writeJSON(w, http.StatusOK, UsageView{Services: []accounting.ServiceUsage{u}})
		return
	}
	view := UsageView{Services: acct.Report()}
	for _, asp := range s.tb.Agent.Accounts() {
		b, ok := s.tb.Agent.Billing(asp)
		if !ok {
			continue
		}
		view.Accounts = append(view.Accounts, AccountView{
			ASP:             b.ASP,
			InstanceSeconds: b.InstanceSeconds,
			CPUMHzSeconds:   b.CPUMHzSeconds,
			MemoryGBHours:   b.MemoryGBHours,
			DiskGBHours:     b.DiskGBHours,
			NetworkGB:       b.NetworkGB,
			OpenServices:    b.OpenServices(),
		})
	}
	writeJSON(w, http.StatusOK, view)
}

// ChunkStoreView is one host's row of GET /images: chunk-store
// occupancy plus the sourcing breakdown of every prime it performed.
type ChunkStoreView struct {
	soda.ChunkStoreStats
	// HitRatio is chunks served locally over all chunk acquisitions.
	HitRatio float64 `json:"hit_ratio"`
}

// ImagesView is the body of GET /images: per-host chunk-store occupancy
// and the tracker's holder map (which host holds how many chunks of
// which image). 404 until a chunk store exists on some daemon.
type ImagesView struct {
	Tracker bool                   `json:"tracker"`
	Stores  []ChunkStoreView       `json:"stores"`
	Holders []soda.ImageHolderView `json:"holders,omitempty"`
}

// handleImages exposes the image distribution layer: how much of which
// image sits on which host, where primes sourced their bytes, and the
// tracker's holder map when cooperative distribution is on.
func (s *Server) handleImages(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	any := false
	for _, d := range s.tb.Daemons {
		if d.ChunkStoreEnabled() {
			any = true
			break
		}
	}
	if !any {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: no chunk store enabled"))
		return
	}
	view := ImagesView{Tracker: s.tb.Master.ChunkDistributionEnabled()}
	for _, d := range s.tb.Daemons {
		st := d.ChunkStoreStats()
		cv := ChunkStoreView{ChunkStoreStats: st}
		if total := st.ChunksHit + st.ChunksPeer + st.ChunksOrig; total > 0 {
			cv.HitRatio = float64(st.ChunksHit) / float64(total)
		}
		view.Stores = append(view.Stores, cv)
	}
	view.Holders = s.tb.Master.ImageHolders()
	writeJSON(w, http.StatusOK, view)
}

// handleMetrics exposes the testbed's metrics registry: plain text by
// default (one `name{labels} value` line per instrument), JSON with
// ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// soda_uptime_seconds is refreshed at exposition time rather than by
	// a standing kernel timer, which would stop K.Run() from draining.
	s.tb.Registry.Gauge("soda_uptime_seconds").Set(s.tb.K.Now().Seconds())
	snap := s.tb.Registry.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, snap.RenderText())
}

// handleTrace exposes the control-plane span trees: JSON by default,
// an indented text rendering with ?format=text.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.tb.Tracer.RenderText())
		return
	}
	writeJSON(w, http.StatusOK, s.tb.Tracer.Roots())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func statusFor(err error) int {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "authentication"):
		return http.StatusUnauthorized
	case strings.Contains(msg, "insufficient") || strings.Contains(msg, "cannot"):
		return http.StatusConflict
	case strings.Contains(msg, "no service") || strings.Contains(msg, "not in repository"):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	var req PublishRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Name == "" || req.SizeMB <= 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: image needs a name and positive size"))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	img := hup.WebContentImage(req.Name, req.DatasetMB)
	if img.SizeMB() < req.SizeMB {
		img = image.NewBuilder(req.Name).
			WithService("/usr/sbin/httpd", 2<<20, 8080).
			WithWorkers(8).
			WithSystemServices(img.SystemServices...).
			WithDataset(req.DatasetMB*32, 32<<10).
			PadToMB(req.SizeMB).
			MustBuild()
	}
	if err := s.tb.Publish(img); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"name": img.Name, "size_mb": img.SizeMB()})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := soda.MachineConfig(req.M)
	if m == (soda.MachineConfig{}) {
		m = soda.DefaultM()
		m.DiskMB = 2048
	}
	dataset := req.DatasetMB
	if dataset <= 0 {
		dataset = 64
	}
	img, err := s.tb.Repo.Lookup(req.Image)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	var pol autoscale.Policy
	if req.Autoscale != "" {
		pol, err = autoscale.ParsePolicy(req.Autoscale)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	wd := hup.NewWebDeployment(s.tb, appsvc.DefaultWebParams(dataset))
	svc, err := s.tb.CreateService(req.Credential, soda.ServiceSpec{
		Name:         req.Name,
		ImageName:    req.Image,
		Repository:   hup.RepoIP,
		Requirement:  soda.Requirement{N: req.N, M: m},
		GuestProfile: img.SystemServices,
		Behavior:     wd.Behavior(),
		SLO:          req.SLO(),
		Autoscale:    pol,
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, serviceView(svc))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ServiceView
	for _, name := range s.tb.Master.Services() {
		svc, _ := s.tb.Master.Service(name)
		out = append(out, serviceView(svc))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	svc, ok := s.tb.Master.Service(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: no service %q", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, serviceView(svc))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.tb.Teardown(r.URL.Query().Get("credential"), r.PathValue("name"))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "torn-down"})
}

func (s *Server) handleResize(w http.ResponseWriter, r *http.Request) {
	var req ResizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	svc, err := s.tb.Resize(req.Credential, r.PathValue("name"), req.N)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, serviceView(svc))
}

// NodeStatusView is the wire form of a node's monitoring snapshot.
type NodeStatusView struct {
	Node       string  `json:"node"`
	Host       string  `json:"host"`
	IP         string  `json:"ip"`
	GuestState string  `json:"guest_state"`
	Workers    int     `json:"workers"`
	CPUGcycles float64 `json:"cpu_gcycles"`
	Forwarded  int     `json:"forwarded"`
	Active     int     `json:"active"`
}

// StatusView is the wire form of the ASP monitoring snapshot.
type StatusView struct {
	Name    string           `json:"name"`
	State   string           `json:"state"`
	Healthy bool             `json:"healthy"`
	Routed  int              `json:"routed"`
	Dropped int              `json:"dropped"`
	Nodes   []NodeStatusView `json:"nodes"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.tb.Agent.ServiceStatus(r.URL.Query().Get("credential"), r.PathValue("name"))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	view := StatusView{
		Name:    st.Name,
		State:   st.State.String(),
		Healthy: st.Healthy(),
		Routed:  st.Routed,
		Dropped: st.Dropped,
	}
	for _, n := range st.Nodes {
		view.Nodes = append(view.Nodes, NodeStatusView{
			Node:       n.NodeName,
			Host:       n.HostName,
			IP:         string(n.IP),
			GuestState: n.GuestState,
			Workers:    n.Workers,
			CPUGcycles: n.CPUCycles / 1e9,
			Forwarded:  n.Forwarded,
			Active:     n.Active,
		})
	}
	writeJSON(w, http.StatusOK, view)
}

// ProbeRequest is the body of POST /v1/services/{name}/probe.
type ProbeRequest struct {
	Credential string `json:"credential"`
	// Requests is how many back-to-back probe requests to issue (1–1000).
	Requests int `json:"requests"`
}

// ProbeView reports a probe's measured latencies (virtual time).
type ProbeView struct {
	Requests  int     `json:"requests"`
	Completed int     `json:"completed"`
	MeanMs    float64 `json:"mean_ms"`
	P95Ms     float64 `json:"p95_ms"`
}

// handleProbe drives real requests through the simulated service switch
// and reports the response-time distribution — a synthetic `siege` the
// ASP can run against its own hosted service.
func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	var req ProbeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Requests <= 0 {
		req.Requests = 10
	}
	if req.Requests > 1000 {
		req.Requests = 1000
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	name := r.PathValue("name")
	// Ownership check via the monitoring path.
	if _, err := s.tb.Agent.ServiceStatus(req.Credential, name); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	svc, ok := s.tb.Master.Service(name)
	if !ok || svc.Switch == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: no routable service %q", name))
		return
	}
	gen := workload.NewGenerator(s.tb.K, hup.SwitchTarget{Switch: svc.Switch}, s.tb.AddClient(), s.tb.RNG.Split())
	done := false
	gen.IssueN(req.Requests, func() { done = true })
	for !done && s.tb.K.Pending() > 0 {
		s.tb.K.RunFor(time.Second)
	}
	writeJSON(w, http.StatusOK, ProbeView{
		Requests:  req.Requests,
		Completed: gen.Completed,
		MeanMs:    gen.Latency.MeanDuration().Seconds() * 1000,
		P95Ms:     gen.LatencyQ.Quantile(0.95) * 1000,
	})
}

func (s *Server) handleHUP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []HostView
	for i, d := range s.tb.Master.Daemons() {
		avail := d.Availability()
		out = append(out, HostView{
			Name:          s.tb.Hosts[i].Spec.Name,
			CPUMHz:        avail.CPUMHz,
			MemoryMB:      avail.MemoryMB,
			DiskMB:        avail.DiskMB,
			BandwidthMbps: avail.BandwidthMbps,
			Nodes:         d.Nodes(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func serviceView(svc *soda.Service) ServiceView {
	v := ServiceView{
		Name:       svc.Spec.Name,
		State:      svc.State().String(),
		Capacity:   svc.TotalCapacity(),
		ConfigFile: svc.Config.Render(),
	}
	for _, n := range svc.Nodes {
		v.Nodes = append(v.Nodes, NodeView{
			Node:        n.NodeName,
			Host:        n.HostName,
			IP:          string(n.IP),
			Port:        n.Port,
			Capacity:    n.Capacity,
			BootSec:     n.BootTime.Seconds(),
			DownloadSec: n.DownloadTime.Seconds(),
			RAMDisk:     n.RAMDisk,
		})
	}
	return v
}
