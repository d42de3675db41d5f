package hostos

import (
	"sort"
	"strconv"
	"time"

	"repro/internal/cycles"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// CPUMonitor samples per-userid CPU shares at a fixed period, producing
// the time series plotted in Figure 5. A share is the fraction of the
// host's total cycle capacity a userid consumed during the sample window.
type CPUMonitor struct {
	h       *Host
	period  sim.Duration
	uids    []int
	series  map[int]*metrics.TimeSeries
	last    map[int]float64
	lastT   sim.Time
	ticker  *sim.Ticker
	stopped bool
}

// NewCPUMonitor starts sampling the given userids every period. Names maps
// each uid to a series label ("web", "comp", "log"); missing names default
// to "uid-N".
func NewCPUMonitor(h *Host, period sim.Duration, uids []int, names map[int]string) *CPUMonitor {
	m := &CPUMonitor{
		h:      h,
		period: period,
		uids:   append([]int(nil), uids...),
		series: make(map[int]*metrics.TimeSeries),
		last:   make(map[int]float64),
		lastT:  h.k.Now(),
	}
	sort.Ints(m.uids)
	for _, uid := range m.uids {
		name := names[uid]
		if name == "" {
			name = "uid-" + strconv.Itoa(uid)
		}
		m.series[uid] = metrics.NewTimeSeries(name)
	}
	for _, uid := range m.uids {
		m.last[uid] = h.CPUCyclesFor(uid)
	}
	m.ticker = h.k.Every(period, m.sample)
	return m
}

func (m *CPUMonitor) sample() {
	now := m.h.k.Now()
	dt := now.Sub(m.lastT)
	if dt <= 0 {
		return
	}
	capacity := float64(m.h.Spec.Clock) * dt.Seconds()
	for _, uid := range m.uids {
		usage := m.h.CPUCyclesFor(uid)
		delta := usage - m.last[uid]
		m.last[uid] = usage
		share := delta / capacity
		m.series[uid].Record(time.Duration(now), share)
	}
	m.lastT = now
}

// Stop ends sampling. It is idempotent: stopping an already-stopped
// monitor is a no-op.
func (m *CPUMonitor) Stop() {
	if m.stopped {
		return
	}
	m.stopped = true
	m.ticker.Stop()
}

// Stopped reports whether the monitor has been stopped.
func (m *CPUMonitor) Stopped() bool { return m.stopped }

// Detach removes uid from the sampled set, so a torn-down service stops
// producing samples and its series no longer appears in SeriesSet —
// consumers rendering live gauges stop exporting stale values. The
// recorded history stays readable through the series the caller already
// holds. Detach reports whether the uid was monitored.
func (m *CPUMonitor) Detach(uid int) bool {
	if _, ok := m.series[uid]; !ok {
		return false
	}
	for i, u := range m.uids {
		if u == uid {
			m.uids = append(m.uids[:i], m.uids[i+1:]...)
			break
		}
	}
	delete(m.series, uid)
	delete(m.last, uid)
	return true
}

// Series returns the share series for uid, or nil if unmonitored.
func (m *CPUMonitor) Series(uid int) *metrics.TimeSeries { return m.series[uid] }

// SeriesSet returns all monitored series in uid order, for rendering.
func (m *CPUMonitor) SeriesSet() *metrics.SeriesSet {
	var ss metrics.SeriesSet
	for _, uid := range m.uids {
		ss.Add(m.series[uid])
	}
	return &ss
}

// MHzOf converts a share fraction into MHz-equivalents on this host.
func (m *CPUMonitor) MHzOf(share float64) float64 {
	return share * float64(m.h.Spec.Clock) / float64(cycles.MHz)
}
