package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/realswitch"
	"repro/internal/svcswitch"
)

// throughputConfig parameterises the live-proxy contended-throughput
// benchmark (-throughput).
type throughputConfig struct {
	backends int
	conc     int
	duration time.Duration
	out      string
	// sloP99Ms and sloAvailability, when set, turn the run into an SLO
	// gate: the command exits non-zero if the measured p99 latency or
	// the routed fraction misses the objective.
	sloP99Ms        float64
	sloAvailability float64
}

// sloReport is the SLO section of the throughput report.
type sloReport struct {
	P99TargetMs        float64 `json:"p99_target_ms,omitempty"`
	AvailabilityTarget float64 `json:"availability_target,omitempty"`
	Availability       float64 `json:"availability"`
	Pass               bool    `json:"pass"`
	Detail             string  `json:"detail,omitempty"`
}

// throughputReport is the JSON the benchmark emits with -out; the CI SLO
// gate uploads it as BENCH_slo.json.
type throughputReport struct {
	Backends   int     `json:"backends"`
	Conc       int     `json:"concurrency"`
	DurationS  float64 `json:"duration_sec"`
	Requests   int64   `json:"requests"`
	ReqPerSec  float64 `json:"req_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
	Routed     int     `json:"routed"`
	Dropped    int     `json:"dropped"`
	Retried    int     `json:"retried"`
	IdlePerHos int     `json:"transport_max_idle_per_host"`
	GoMaxProcs int     `json:"gomaxprocs"`
	// SLO is present when the run was an SLO gate.
	SLO *sloReport `json:"slo,omitempty"`
}

// evalSLO judges the report against the configured objectives.
func evalSLO(cfg throughputConfig, rep *throughputReport) {
	if cfg.sloP99Ms <= 0 && cfg.sloAvailability <= 0 {
		return
	}
	s := &sloReport{
		P99TargetMs:        cfg.sloP99Ms,
		AvailabilityTarget: cfg.sloAvailability,
		Availability:       1,
		Pass:               true,
	}
	if total := rep.Routed + rep.Dropped; total > 0 {
		s.Availability = float64(rep.Routed) / float64(total)
	}
	var misses []string
	if cfg.sloP99Ms > 0 && rep.P99Ms > cfg.sloP99Ms {
		misses = append(misses, fmt.Sprintf("p99 %.2fms > target %.2fms", rep.P99Ms, cfg.sloP99Ms))
	}
	if cfg.sloAvailability > 0 && s.Availability < cfg.sloAvailability {
		misses = append(misses, fmt.Sprintf("availability %.4f < target %.4f", s.Availability, cfg.sloAvailability))
	}
	if len(misses) > 0 {
		s.Pass = false
		s.Detail = strings.Join(misses, "; ")
	}
	rep.SLO = s
}

// runThroughput stands up cfg.backends live loopback HTTP backends with
// a realswitch.Proxy in front, then drives it with cfg.conc keep-alive
// clients for cfg.duration and reports achieved request rate and latency
// quantiles. This is the live twin of the simulator's figure runs: it
// measures the switch data plane itself, end to end over real TCP.
func runThroughput(cfg throughputConfig) (throughputReport, error) {
	var rep throughputReport
	var entries []svcswitch.BackendEntry
	for i := 0; i < cfg.backends; i++ {
		be := &realswitch.Backend{Name: "node-" + strconv.Itoa(i)}
		srv := httptest.NewServer(be)
		defer srv.Close()
		host := strings.TrimPrefix(srv.URL, "http://")
		parts := strings.Split(host, ":")
		port, err := strconv.Atoi(parts[1])
		if err != nil {
			return rep, err
		}
		entries = append(entries, svcswitch.BackendEntry{
			IP: "127.0.0.1", Port: port, Capacity: 1 + i%2,
		})
	}
	conf := svcswitch.NewConfigFile("throughput")
	if err := conf.SetEntries(entries); err != nil {
		return rep, err
	}
	proxy := realswitch.New(conf)
	front := httptest.NewServer(proxy)
	defer front.Close()

	var total atomic.Int64
	latCh := make(chan []float64, cfg.conc)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(cfg.conc)
	for w := 0; w < cfg.conc; w++ {
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
			defer client.CloseIdleConnections()
			var lats []float64
			for {
				select {
				case <-stop:
					latCh <- lats
					return
				default:
				}
				t0 := time.Now()
				resp, err := client.Get(front.URL)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lats = append(lats, time.Since(t0).Seconds()*1e3)
				total.Add(1)
			}
		}()
	}
	start := time.Now()
	time.Sleep(cfg.duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var all []float64
	for w := 0; w < cfg.conc; w++ {
		all = append(all, <-latCh...)
	}
	sort.Float64s(all)
	q := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	rep = throughputReport{
		Backends:   cfg.backends,
		Conc:       cfg.conc,
		DurationS:  elapsed,
		Requests:   total.Load(),
		ReqPerSec:  float64(total.Load()) / elapsed,
		P50Ms:      q(0.50),
		P95Ms:      q(0.95),
		P99Ms:      q(0.99),
		Routed:     proxy.Routed(),
		Dropped:    proxy.Dropped(),
		Retried:    proxy.Retried(),
		IdlePerHos: realswitch.MaxIdleConnsPerHost,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	return rep, nil
}

// runThroughputCmd executes the benchmark and renders/saves the report.
// With an SLO configured, a miss fails the command after the report is
// written, so CI keeps the artifact for the failing run.
func runThroughputCmd(cfg throughputConfig) int {
	rep, err := runThroughput(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "throughput: %v\n", err)
		return 1
	}
	evalSLO(cfg, &rep)
	fmt.Printf("throughput: %d backends, %d clients, %.1fs: %.0f req/s (p50 %.2fms p95 %.2fms p99 %.2fms, retries %d, dropped %d)\n",
		rep.Backends, rep.Conc, rep.DurationS, rep.ReqPerSec, rep.P50Ms, rep.P95Ms, rep.P99Ms, rep.Retried, rep.Dropped)
	if cfg.out != "" {
		if err := writeReport(cfg.out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "throughput: %v\n", err)
			return 1
		}
	}
	if rep.SLO != nil {
		if !rep.SLO.Pass {
			fmt.Fprintf(os.Stderr, "throughput: SLO VIOLATED: %s\n", rep.SLO.Detail)
			return 1
		}
		fmt.Printf("slo: pass (p99 %.2fms <= %.2fms, availability %.4f)\n",
			rep.P99Ms, rep.SLO.P99TargetMs, rep.SLO.Availability)
	}
	return 0
}
