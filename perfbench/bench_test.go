package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the registry %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, registry %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []metricDef, names, units []string) {
		if len(got) != len(names) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(names), len(got))
		}
		for i, d := range got {
			if names[i] != d.Name || units[i] != d.Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], catalog %s [%s]", kind, i, names[i], units[i], d.Name, d.Unit)
			}
		}
	}
	var names, units []string
	for _, m := range bf.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range bf.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
	var setupBound, maxBound float64
	for _, m := range bf.EndToEnd {
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if !validName(d.Name, 64, "_.-") {
			t.Errorf("bad metric name %q", d.Name)
		}
		if !validName(d.Unit, 16, "_/%.-") {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing")
	}
}

func validName(s string, maxLen int, extra string) bool {
	if s == "" || len(s) > maxLen {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !alnum && (i == 0 || !strings.ContainsRune(extra, r)) {
			return false
		}
	}
	return true
}

func TestAssembleReportsEveryMetric(t *testing.T) {
	rep := newReport()
	rep.attempted = 10
	if _, err := assemble(rep, false); err == nil {
		t.Fatal("an untraced result without its end-to-end metrics was accepted")
	}
	for _, d := range endToEnd {
		rep.values[d.Name] = 1.5
	}
	res, err := assemble(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Fatalf("untraced result has %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	res, err = assemble(newReportWith(5), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("traced result lacks %s [%s]", d.Name, d.Unit)
		}
	}
}

func newReportWith(attempted int64) *report {
	r := newReport()
	r.attempted = attempted
	return r
}

func TestTailLevelLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {800, 0.95}, {999, 0.95},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	}
	for _, c := range cases {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := 20; n < 30000; n += 7 {
		q := tailLevel(n)
		if beyond(q, n) < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond", n, q*100, beyond(q, n))
		}
		for _, next := range tailLadder {
			if next > q && beyond(next, n) >= minBeyond {
				t.Fatalf("n=%d: p%g qualifies but p%g was chosen", n, next*100, q*100)
			}
		}
	}
}

func TestSummarizeCountsSamplesBeyondTheTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	got := summarize(xs)
	if got.N != 1000 || got.Level != 0.99 || got.P50 != 500 || got.Tail != 990 {
		t.Fatalf("summarize = %+v, want n=1000 p50=500 p99=990", got)
	}
	above := 0
	for _, x := range xs {
		if x > got.Tail {
			above++
		}
	}
	if above != minBeyond {
		t.Fatalf("%d samples above the p99, want %d", above, minBeyond)
	}
	// Combined batches pool the median and take the median of the
	// batches' tails, so a stall in one batch does not set the tail.
	var bs [][]float64
	for i := 0; i < 3; i++ {
		b := make([]float64, 300)
		for j := range b {
			b[j] = float64(j + 1)
		}
		bs = append(bs, b)
	}
	for j := 270; j < 300; j++ {
		bs[0][j] = 1e6
	}
	c := combine(bs)
	if c.N != 900 || c.Level != 0.95 || c.Tail != 285 || c.P50 != 150 {
		t.Fatalf("combine = %+v, want n=900 p50=150 p95=285", c)
	}
}

func TestWindowsDropShortRemainders(t *testing.T) {
	ws := windows([][]float64{make([]float64, 250), make([]float64, 99), make([]float64, 300)}, 100)
	if len(ws) != 5 {
		t.Fatalf("%d windows, want 2 + 0 + 3", len(ws))
	}
	for _, w := range ws {
		if len(w) != 100 {
			t.Fatalf("window of %d samples, want 100", len(w))
		}
	}
	// The window sizes the workloads cut their tails from keep the rule.
	if l := tailLevel(proxyWindowN); l != 0.9 {
		t.Errorf("proxy window tail p%g, want p90", l*100)
	}
	if l := tailLevel(ctlWindowN); l != 0.95 {
		t.Errorf("ctl window tail p%g, want p95", l*100)
	}
}

func TestFailRatioAccounting(t *testing.T) {
	if failRatio(0, 0) != 0 || failRatio(8, 2) != 0.25 {
		t.Fatal("failRatio miscounts")
	}
	// A sim run counts issued requests as attempted and generator errors
	// and timeouts as failed; after the drain nothing is in flight.
	rep, err := runSimRep(tinyShape, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.issued == 0 || rep.inFlight() != 0 {
		t.Fatalf("issued %d, in flight after drain %d", rep.issued, rep.inFlight())
	}
	if rep.issued != rep.completed+rep.errors+rep.timeouts {
		t.Fatalf("conservation: issued %d != %d + %d + %d", rep.issued, rep.completed, rep.errors, rep.timeouts)
	}
	// A failed check or a failed operation reaches the result line.
	out := newReport()
	out.attempted, out.failed = 4, 1
	out.check("x", false, "")
	for _, d := range endToEnd {
		out.values[d.Name] = 1
	}
	res, err := assemble(out, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 4 || res.Failed != 1 {
		t.Fatalf("result %+v", res)
	}
}

// tinyShape is a sim workload small enough for unit tests.
var tinyShape = simShape{clients: 200, warm: 20 * sim.Millisecond, load: 300 * sim.Millisecond, slice: 10 * sim.Millisecond}

func TestSimDigestStableAcrossSameSeedRuns(t *testing.T) {
	a, err := runSimRep(tinyShape, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSimRep(tinyShape, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Fatalf("same-seed digests differ: %s vs %s", a.digest, b.digest)
	}
	tr := newTracer()
	traced, err := runSimRep(tinyShape, 11, tr)
	if err != nil {
		t.Fatal(err)
	}
	if traced.digest != a.digest {
		t.Fatalf("traced digest %s != untraced %s", traced.digest, a.digest)
	}
	if traced.routeCalls == 0 || traced.flowSamples == 0 || tr.allocs == 0 {
		t.Fatalf("traced run measured nothing: %+v, tracer %+v", traced, tr)
	}
	other, err := runSimRep(tinyShape, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if other.digest == a.digest {
		t.Fatal("a different seed reproduced the digest")
	}
}

func TestCtlDigestStableAndReplayed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 64-host fleets")
	}
	a, err := runCtlRep(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCtlRep(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.live != b.live {
		t.Fatalf("same-seed state digests differ: %s vs %s", a.live, b.live)
	}
	if a.replayed != a.live {
		t.Fatalf("replayed digest %s != live %s", a.replayed, a.live)
	}
	if a.failed != 0 || len(a.create) == 0 || len(a.resize) == 0 || len(a.teardown) == 0 {
		t.Fatalf("stream: %d failed, %d creates, %d resizes, %d teardowns",
			a.failed, len(a.create), len(a.resize), len(a.teardown))
	}
}

func TestProxyStackServesTheWeightedSplit(t *testing.T) {
	s, err := buildProxyStack(true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	out := newReport()
	nodes := map[string]int{}
	tally := func(p phase) {
		out.attempted += int64(p.sent)
		out.failed += int64(p.failed)
		for n, c := range p.nodes {
			nodes[n] += c
		}
	}
	burst, rate := s.closedLoop(600)
	tally(burst)
	open := s.openLoop(2000, 600, sim.NewRNG(1))
	tally(open)
	if rate <= 0 || len(open.lat) != 600 || len(open.lateMs) != 600 {
		t.Fatalf("rate %v, %d latencies, %d lateness samples", rate, len(open.lat), len(open.lateMs))
	}
	checkSplit(out, nodes)
	for _, c := range out.checks {
		if !c.ok {
			t.Errorf("%s: %s", c.name, c.detail)
		}
	}
	if s.front.calls.Load() < 1200 {
		t.Fatalf("proxy timer saw %d requests", s.front.calls.Load())
	}
}

func TestCtlChurnNeverRefusesAndReplaysAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 64-host fleet per seed")
	}
	for seed := uint64(100); seed < 130; seed++ {
		r, err := runCtlRep(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || r.replayed != r.live {
			t.Errorf("seed %d: %d refused, replay %.12s, live %.12s", seed, r.failed, r.replayed, r.live)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[[2]string]string{
		{"/src/internal/sim/fluid.go", "repro/internal/sim.(*FluidServer).reschedule"}: "sim.fluid",
		{"/src/internal/sim/kernel.go", "repro/internal/sim.(*Kernel).step"}:           "sim.kernel",
		{"repro/internal/simnet/network.go", "x"}:                                      "simnet",
		{"/src/internal/hostos/sched/sched.go", "x"}:                                   "hostos",
		{"/go/src/runtime/malloc.go", "runtime.mallocgc"}:                              "runtime",
		{"/go/src/net/http/server.go", "net/http.(*conn).serve"}:                       "",
	}
	for in, want := range cases {
		if got := layerOf(in[0], in[1]); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", in[0], got, want)
		}
	}
}

func TestLeafSharesDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		k := sim.NewKernel()
		for i := 0; i < 2000; i++ {
			k.After(sim.Duration(i), func() {})
		}
		k.Run()
	}
	pprof.StopCPUProfile()
	shares, err := leafShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range shares {
		total += s
	}
	if total <= 0 || total > 1+1e-9 {
		t.Fatalf("shares sum to %v: %v", total, shares)
	}
	if shares["sim.kernel"] == 0 {
		t.Fatalf("no samples charged to sim.kernel: %v", shares)
	}
	if _, err := leafShares([]byte("not a profile")); err == nil {
		t.Fatal("garbage decoded as a profile")
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, io.Discard); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("printed %q", out.String())
	}
}
