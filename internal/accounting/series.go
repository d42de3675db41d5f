// Package accounting is the usage-metering and SLO-evaluation subsystem
// of the HUP: the piece that turns raw telemetry into per-service
// accountability. The paper's Agent "performs other administrative tasks
// such as billing" (§2.2); this package supplies the measured quantities
// behind that billing — a Meter per service samples CPU cycles delivered
// by the host scheduler, reserved memory/disk, and bytes moved by the
// traffic shaper, aggregating them into windowed usage records — and an
// Evaluator judges each service's latency/availability/CPU delivery
// against its SLO with multi-window burn-rate detection.
//
// Everything runs off an injected clock: virtual time under internal/sim
// (deterministic, assertable), wall time in live deployments.
package accounting

import "repro/internal/sim"

// Usage is a bundle of metered resource quantities over some interval
// (or cumulatively, for totals). Units are the billing units: CPU in
// MHz-seconds (one MHz of delivered cycles for one second), memory and
// disk in MB-seconds of reservation, network in bytes submitted.
type Usage struct {
	CPUMHzSeconds float64 `json:"cpu_mhz_seconds"`
	MemMBSeconds  float64 `json:"mem_mb_seconds"`
	DiskMBSeconds float64 `json:"disk_mb_seconds"`
	NetBytes      int64   `json:"net_bytes"`
}

// Add accumulates p into u.
func (u *Usage) Add(p Usage) {
	u.CPUMHzSeconds += p.CPUMHzSeconds
	u.MemMBSeconds += p.MemMBSeconds
	u.DiskMBSeconds += p.DiskMBSeconds
	u.NetBytes += p.NetBytes
}

// MemoryGBHours converts the memory reservation integral into the
// GB-hour billing unit (1 GB = 1024 MB).
func (u Usage) MemoryGBHours() float64 { return u.MemMBSeconds / 1024 / 3600 }

// DiskGBHours converts the disk reservation integral into GB-hours.
func (u Usage) DiskGBHours() float64 { return u.DiskMBSeconds / 1024 / 3600 }

// NetworkGB converts transferred bytes into GB (1 GB = 2^30 bytes).
func (u Usage) NetworkGB() float64 { return float64(u.NetBytes) / (1 << 30) }

// Bucket is one resolution-aligned slot of a usage ring.
type Bucket struct {
	// Start is the bucket's aligned start time.
	Start sim.Time
	Usage
}

// Ring is a fixed-capacity circular buffer of usage buckets at one
// resolution. Samples are folded into the bucket their timestamp aligns
// to; when time advances past the newest bucket the ring rotates,
// evicting the oldest. Buckets are sparse in time: idle periods occupy
// no slots.
type Ring struct {
	res     sim.Duration
	buckets []Bucket
	head    int // index of the newest bucket
	n       int // live bucket count
}

// NewRing returns a ring of capacity buckets at the given resolution.
func NewRing(res sim.Duration, capacity int) *Ring {
	if res <= 0 || capacity <= 0 {
		panic("accounting: ring needs positive resolution and capacity")
	}
	return &Ring{res: res, buckets: make([]Bucket, capacity)}
}

// Len returns the number of live buckets.
func (r *Ring) Len() int { return r.n }

// align floors t to the ring's resolution.
func (r *Ring) align(t sim.Time) sim.Time {
	return sim.Time(int64(t) / int64(r.res) * int64(r.res))
}

// Add folds a usage delta observed at time t into the ring.
func (r *Ring) Add(t sim.Time, u Usage) {
	start := r.align(t)
	if r.n == 0 {
		r.head, r.n = 0, 1
		r.buckets[0] = Bucket{Start: start, Usage: u}
		return
	}
	cur := &r.buckets[r.head]
	if start <= cur.Start {
		// Same bucket, or a late sample: fold into the newest slot rather
		// than lose it (the clock never goes backwards under sim; wall
		// clocks may jitter).
		cur.Usage.Add(u)
		return
	}
	r.head = (r.head + 1) % len(r.buckets)
	if r.n < len(r.buckets) {
		r.n++
	}
	r.buckets[r.head] = Bucket{Start: start, Usage: u}
}

// Buckets returns the live buckets, oldest first.
func (r *Ring) Buckets() []Bucket {
	out := make([]Bucket, 0, r.n)
	for i := 0; i < r.n; i++ {
		idx := (r.head - r.n + 1 + i + len(r.buckets)) % len(r.buckets)
		out = append(out, r.buckets[idx])
	}
	return out
}

// Total sums every live bucket.
func (r *Ring) Total() Usage {
	var total Usage
	for i := 0; i < r.n; i++ {
		total.Add(r.buckets[i].Usage)
	}
	return total
}

// Since sums the buckets whose start is at or after t.
func (r *Ring) Since(t sim.Time) Usage {
	var total Usage
	for i := 0; i < r.n; i++ {
		idx := (r.head - i + len(r.buckets)) % len(r.buckets)
		if r.buckets[idx].Start < t {
			break // buckets behind the head only get older
		}
		total.Add(r.buckets[idx].Usage)
	}
	return total
}

// Step-down retention: fine resolution for live dashboards, mid for
// recent history, coarse for billing reconciliation. With the default
// 1 s sampling the coarse ring holds six hours.
const (
	FineRes   = sim.Second
	FineCap   = 120 // 2 minutes
	MidRes    = 10 * sim.Second
	MidCap    = 180 // 30 minutes
	CoarseRes = sim.Minute
	CoarseCap = 360 // 6 hours
)

// Series is the step-down usage time series of one service: every
// sample feeds all three rings, each ring evicting at its own horizon.
type Series struct {
	Fine, Mid, Coarse *Ring
}

// NewSeries returns the standard 1s/10s/1m step-down series.
func NewSeries() *Series {
	return &Series{
		Fine:   NewRing(FineRes, FineCap),
		Mid:    NewRing(MidRes, MidCap),
		Coarse: NewRing(CoarseRes, CoarseCap),
	}
}

// Add folds one sample into every resolution.
func (s *Series) Add(t sim.Time, u Usage) {
	s.Fine.Add(t, u)
	s.Mid.Add(t, u)
	s.Coarse.Add(t, u)
}
