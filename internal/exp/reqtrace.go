package exp

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/reqtrace"
	"repro/internal/telemetry"
)

// ReqtraceOverheadResult measures what the per-request trace layer
// costs the routing hot path: the switch is driven through the same
// request sequence with the tracer absent and attached-but-unsampled
// (head sampling off, slow threshold above any simulated latency), and
// the paths must agree within 2%. The traced fast path is a record
// assembled in the pooled op plus an integer-compare verdict — no
// allocation, no lock. JSON-tagged for BENCH_trace.json in CI.
type ReqtraceOverheadResult struct {
	Ops    int `json:"ops"`
	Trials int `json:"trials"`
	// BareNs / TracedNs are ns per routed request, minimum over trials
	// (minimum, not mean: scheduler noise only ever adds time).
	BareNs   float64 `json:"bare_ns_per_op"`
	TracedNs float64 `json:"traced_ns_per_op"`
	// OverheadPct is (traced-bare)/bare in percent; negative means the
	// traced run was faster (noise floor).
	OverheadPct float64 `json:"overhead_pct"`
	// Sampled is the traced run's final sampled counter — proof the
	// tail sampler saw every request while routing ran.
	Sampled int64 `json:"sampled"`
	// Retained counts records kept by a separate retain-all pass, and
	// DeterministicRetention reports whether two same-sequence passes
	// retained byte-identical rings.
	Retained               int  `json:"retained"`
	DeterministicRetention bool `json:"deterministic_retention"`
}

// reqtraceTrial measures one timed pass of ops routed requests, with
// the tracer attached (never-retain policy) or not. Returns ns/op and
// the sampled count after the run.
func reqtraceTrial(withTracer bool, ops int) (float64, int64, error) {
	k, sw, _, err := flightBenchSwitch()
	if err != nil {
		return 0, 0, err
	}
	var reg *telemetry.Registry
	if withTracer {
		reg = telemetry.NewRegistry()
		st := reqtrace.NewStore(reqtrace.Config{
			Capacity: 256, HeadEvery: -1, SlowThreshold: time.Hour,
		}, reg)
		sw.SetRequestTracer(st.Collector("svc"))
	}
	// Warm up allocator pools and the route cache outside the window.
	if err := flightRouteN(k, sw, ops/10+1); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := flightRouteN(k, sw, ops); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	var sampled int64
	if withTracer {
		sampled = reg.Snapshot().Counter("soda_reqtrace_sampled_total", telemetry.L("service", "svc"))
	}
	return float64(elapsed.Nanoseconds()) / float64(ops), sampled, nil
}

// reqtraceRetentionPass routes n requests against a retain-all
// collector and returns the marshalled ring — run twice to check
// same-sequence retention is byte-identical.
func reqtraceRetentionPass(n int) (int, []byte, error) {
	k, sw, _, err := flightBenchSwitch()
	if err != nil {
		return 0, nil, err
	}
	st := reqtrace.NewStore(reqtrace.Config{
		Capacity: n, HeadEvery: 1,
	}, telemetry.NewRegistry())
	sw.SetRequestTracer(st.Collector("svc"))
	if err := flightRouteN(k, sw, n); err != nil {
		return 0, nil, err
	}
	recs := st.Snapshot("svc")
	blob, err := json.Marshal(recs)
	return len(recs), blob, err
}

// RunReqtraceOverhead measures the routing hot path bare vs
// tracing-enabled, minimum of 5 trials of 100k requests each.
func RunReqtraceOverhead() (*ReqtraceOverheadResult, error) {
	const ops, trials = 100_000, 5
	res := &ReqtraceOverheadResult{Ops: ops, Trials: trials}
	// Interleave bare and traced trials so process warm-up (allocator,
	// code cache) biases neither variant; take each side's minimum.
	for t := 0; t < trials; t++ {
		for _, withTracer := range []bool{false, true} {
			ns, sampled, err := reqtraceTrial(withTracer, ops)
			if err != nil {
				return nil, err
			}
			if withTracer {
				if res.TracedNs == 0 || ns < res.TracedNs {
					res.TracedNs = ns
				}
				if sampled > res.Sampled {
					res.Sampled = sampled
				}
			} else if res.BareNs == 0 || ns < res.BareNs {
				res.BareNs = ns
			}
		}
	}
	res.OverheadPct = (res.TracedNs - res.BareNs) / res.BareNs * 100

	// Retention determinism: the same request sequence through two
	// fresh switches must retain byte-identical rings.
	const retainN = 2000
	n1, a, err := reqtraceRetentionPass(retainN)
	if err != nil {
		return nil, err
	}
	_, b, err := reqtraceRetentionPass(retainN)
	if err != nil {
		return nil, err
	}
	res.Retained = n1
	res.DeterministicRetention = string(a) == string(b)
	return res, nil
}

// Title implements Result.
func (*ReqtraceOverheadResult) Title() string {
	return "Request-trace overhead: routing hot path bare vs tail sampler attached (unsampled)"
}

// Render implements Result.
func (r *ReqtraceOverheadResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title() + "\n\n")
	fmt.Fprintf(&b, "  %d routed requests × %d trials (minimum taken)\n", r.Ops, r.Trials)
	fmt.Fprintf(&b, "  bare:   %8.1f ns/op\n", r.BareNs)
	fmt.Fprintf(&b, "  traced: %8.1f ns/op  (%+.1f%%, %d sampled)\n", r.TracedNs, r.OverheadPct, r.Sampled)
	fmt.Fprintf(&b, "  retain-all pass: %d record(s), deterministic=%v\n\n", r.Retained, r.DeterministicRetention)
	b.WriteString(shapeCheck("tail sampler adds ≤ 2% to the routing hot path", r.OverheadPct <= 2) + "\n")
	b.WriteString(shapeCheck("sampler live during the measured run", r.Sampled >= int64(r.Ops)) + "\n")
	b.WriteString(shapeCheck("retain-all pass kept records", r.Retained > 0) + "\n")
	b.WriteString(shapeCheck("same-sequence retention is byte-identical", r.DeterministicRetention) + "\n")
	return b.String()
}
