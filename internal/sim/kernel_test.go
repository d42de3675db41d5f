package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimestampOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	k.After(30*Millisecond, func() { got = append(got, 3) })
	k.After(10*Millisecond, func() { got = append(got, 1) })
	k.After(20*Millisecond, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != Time(30*Millisecond) {
		t.Fatalf("final clock = %v, want 30ms", k.Now())
	}
}

func TestKernelTiesBreakInSchedulingOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Time(Second), func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestKernelEventsScheduledFromCallbacks(t *testing.T) {
	k := NewKernel()
	var fired int
	k.After(Second, func() {
		k.After(Second, func() { fired++ })
		k.Immediately(func() { fired++ })
	})
	end := k.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if end != Time(2*Second) {
		t.Fatalf("end = %v, want 2s", end)
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.After(Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(0, func() {})
	})
	k.Run()
}

func TestKernelRunUntilAdvancesClockToLimit(t *testing.T) {
	k := NewKernel()
	fired := false
	k.After(10*Second, func() { fired = true })
	k.RunUntil(Time(3 * Second))
	if fired {
		t.Fatal("event past limit fired")
	}
	if k.Now() != Time(3*Second) {
		t.Fatalf("clock = %v, want 3s", k.Now())
	}
	k.Run()
	if !fired {
		t.Fatal("event lost after resume")
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	var count int
	for i := 1; i <= 5; i++ {
		k.At(Time(i)*Time(Second), func() {
			count++
			if count == 2 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2 (stop ignored)", count)
	}
	k.Run()
	if count != 5 {
		t.Fatalf("count after resume = %d, want 5", count)
	}
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.After(Second, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("fresh timer not pending")
	}
	if !tm.Cancel() {
		t.Fatal("first cancel returned false")
	}
	if tm.Cancel() {
		t.Fatal("second cancel returned true")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTickerFiresAtPeriodAndStops(t *testing.T) {
	k := NewKernel()
	var stamps []Time
	var tk *Ticker
	tk = k.Every(100*Millisecond, func() {
		stamps = append(stamps, k.Now())
		if len(stamps) == 3 {
			tk.Stop()
		}
	})
	k.Run()
	if len(stamps) != 3 {
		t.Fatalf("ticks = %d, want 3", len(stamps))
	}
	for i, s := range stamps {
		want := Time((i + 1) * int(100*Millisecond))
		if s != want {
			t.Fatalf("tick %d at %v, want %v", i, s, want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(0).Add(1500 * Millisecond)
	if a.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", a.Seconds())
	}
	if a.Sub(Time(Second)) != 500*Millisecond {
		t.Fatalf("Sub = %v", a.Sub(Time(Second)))
	}
	if !Time(1).Before(Time(2)) || !Time(2).After(Time(1)) {
		t.Fatal("Before/After broken")
	}
	if a.String() != "t+1.5s" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestRNGDeterministicAcrossInstances(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first values")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	for n := 1; n < 50; n++ {
		for i := 0; i < 20; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGExpFloat64Mean(t *testing.T) {
	r := NewRNG(99)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Fatalf("exp mean = %v, want ≈1", mean)
	}
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(123)
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Fatalf("norm mean = %v, want ≈0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Fatalf("norm variance = %v, want ≈1", variance)
	}
}

func TestRNGJitterBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		v := r.Jitter(100, 0.1)
		return v >= 90 && v <= 110
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestCancelRemovesEvent(t *testing.T) {
	k := NewKernel()
	fail := func() { t.Error("cancelled deadline fired") }
	const n = 10000
	deadlines := make([]Timer, n)
	for i := range deadlines {
		deadlines[i] = k.After(30*Second, fail)
	}
	// With the heap empty, the next step migrates the far list into it.
	k.RunFor(Millisecond)
	if len(k.far) != 0 || len(k.queue) != n {
		t.Fatalf("far %d, heap %d: want every deadline in the heap", len(k.far), len(k.queue))
	}
	for i, p := range NewRNG(1).Perm(n) {
		if !deadlines[p].Cancel() {
			t.Fatalf("cancel %d of a pending deadline returned false", i)
		}
		if got := k.Pending(); got != n-i-1 {
			t.Fatalf("Pending = %d after %d cancels, want %d", got, i+1, n-i-1)
		}
	}
	if len(k.queue) != 0 {
		t.Fatalf("heap holds %d events after every deadline was cancelled", len(k.queue))
	}
	// The same in the far list, which resets its minimum once empty.
	for i := range deadlines {
		deadlines[i] = k.After(30*Second, fail)
	}
	for _, tm := range deadlines {
		tm.Cancel()
	}
	if k.Pending() != 0 || k.farMin != MaxTime {
		t.Fatalf("Pending = %d, farMin = %v after cancelling the far list", k.Pending(), k.farMin)
	}
	k.Run()
	if k.Dispatched() != 0 {
		t.Fatalf("dispatched %d events, want 0", k.Dispatched())
	}
}

func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	k := NewKernel()
	old := k.After(Second, func() { t.Error("cancelled event fired") })
	if !old.Cancel() {
		t.Fatal("first cancel returned false")
	}
	fired := false
	cur := k.After(Second, func() { fired = true })
	if cur.ev != old.ev {
		t.Fatal("At did not reuse the freed event")
	}
	if old.Cancel() || old.Pending() {
		t.Fatal("stale handle still controls the recycled event")
	}
	if !cur.Pending() {
		t.Fatal("new timer not pending")
	}
	k.Run()
	if !fired {
		t.Fatal("new event did not fire")
	}
}

func TestScheduleCancelAllocatesNothing(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	k.After(Second, fn).Cancel()
	allocs := testing.AllocsPerRun(1000, func() {
		k.After(30*Second, fn).Cancel()
		k.After(Microsecond, fn).Cancel()
	})
	if allocs != 0 {
		t.Fatalf("At + Cancel allocates %v per run, want 0", allocs)
	}
}

// refEvent is one scheduled event in kernelRef, the list model that
// FuzzKernelMatchesReference checks the kernel against.
type refEvent struct {
	at      Time
	seq     uint64
	pending bool
}

// kernelRef models the kernel as a list of its pending events sorted by
// (at, seq), where seq counts every scheduling call, as the kernel's does.
type kernelRef struct {
	live []*refEvent
	seq  uint64
}

// find returns the index in live at which e sits or would sit.
func (r *kernelRef) find(e *refEvent) int {
	return sort.Search(len(r.live), func(i int) bool {
		l := r.live[i]
		return l.at > e.at || (l.at == e.at && l.seq >= e.seq)
	})
}

func (r *kernelRef) schedule(at Time) *refEvent {
	e := &refEvent{at: at, seq: r.seq, pending: true}
	r.seq++
	i := r.find(e)
	r.live = append(r.live, nil)
	copy(r.live[i+1:], r.live[i:])
	r.live[i] = e
	return e
}

// done takes e out of the pending list, if it is there.
func (r *kernelRef) done(e *refEvent) {
	if !e.pending {
		return
	}
	e.pending = false
	i := r.find(e)
	r.live = append(r.live[:i], r.live[i+1:]...)
}

func (r *kernelRef) next() *refEvent {
	if len(r.live) == 0 {
		return nil
	}
	return r.live[0]
}

// checkKernelMatchesReference decodes ops into kernel calls — At and
// After with delays on both sides of farHorizon, Cancel of any handle
// ever issued (fired, cancelled or recycled included), events whose
// callback cancels another handle, Every and Ticker.Stop, and RunFor —
// and checks every dispatch against the reference's next event and
// Pending against its live count after every operation.
func checkKernelMatchesReference(t *testing.T, ops []byte) {
	if len(ops) > 1024 {
		ops = ops[:1024]
	}
	k := NewKernel()
	ref := &kernelRef{}
	var timers []Timer
	var refs []*refEvent
	type tick struct {
		tk  *Ticker
		cur *refEvent
	}
	var ticks []*tick
	fired := func(e *refEvent) {
		if want := ref.next(); want != e {
			t.Fatalf("event seq %d fired at %v, reference expects seq %d at %v", e.seq, k.Now(), want.seq, want.at)
		}
		if k.Now() != e.at {
			t.Fatalf("event seq %d fired with clock %v, scheduled for %v", e.seq, k.Now(), e.at)
		}
		ref.done(e)
	}
	cancel := func(i int) {
		want := refs[i].pending
		if got := timers[i].Cancel(); got != want {
			t.Fatalf("Cancel of handle %d = %v, reference says pending = %v", i, got, want)
		}
		ref.done(refs[i])
	}
	pos := 0
	next := func() int {
		if pos >= len(ops) {
			return 0
		}
		pos++
		return int(ops[pos-1])
	}
	// delay reaches 255 s; run lengths stay under 2.55 s, and at most 8
	// tickers of period 1 ms or more bound the ticks per run.
	scales := [...]Duration{Microsecond, Millisecond, 10 * Millisecond, Second}
	delay := func(scales []Duration) Duration {
		return Duration(next()) * scales[next()%len(scales)]
	}
	for pos < len(ops) {
		switch op := next() % 6; op {
		case 0, 1: // At or After; a callback may cancel an earlier handle
			d := delay(scales[:])
			victim := -1
			if len(timers) > 0 && next()%2 == 1 {
				victim = next() % len(timers)
			}
			e := ref.schedule(k.Now().Add(d))
			fn := func() {
				fired(e)
				if victim >= 0 {
					cancel(victim)
				}
			}
			if op == 0 {
				timers = append(timers, k.At(e.at, fn))
			} else {
				timers = append(timers, k.After(d, fn))
			}
			refs = append(refs, e)
		case 2:
			if len(timers) > 0 {
				cancel(next() % len(timers))
			}
		case 3:
			if len(ticks) == 8 {
				break
			}
			period := Duration(next()+1) * Millisecond
			tc := &tick{}
			tc.tk = k.Every(period, func() {
				fired(tc.cur)
				tc.cur = ref.schedule(k.Now().Add(period)) // the re-arm
			})
			tc.cur = ref.schedule(k.Now().Add(period))
			ticks = append(ticks, tc)
		case 4:
			if len(ticks) > 0 {
				tc := ticks[next()%len(ticks)]
				tc.tk.Stop()
				ref.done(tc.cur)
			}
		case 5:
			limit := k.Now().Add(delay(scales[:3]))
			if k.RunUntil(limit) != limit {
				t.Fatalf("RunUntil(%v) stopped at %v", limit, k.Now())
			}
			if e := ref.next(); e != nil && e.at <= limit {
				t.Fatalf("event at %v (seq %d) still pending after running to %v", e.at, e.seq, limit)
			}
		}
		if got, want := k.Pending(), len(ref.live); got != want {
			t.Fatalf("after op %d: Pending = %d, reference holds %d live events", pos, got, want)
		}
	}
	for _, tc := range ticks {
		tc.tk.Stop()
		ref.done(tc.cur)
	}
	k.Run()
	if e := ref.next(); e != nil || k.Pending() != 0 {
		t.Fatalf("drained kernel: Pending = %d, reference next %+v", k.Pending(), e)
	}
}

func FuzzKernelMatchesReference(f *testing.F) {
	f.Add([]byte{0, 10, 3, 1, 5, 1, 2, 0, 5, 20, 3})
	// Three far events; cancelling the first moves the last into its slot,
	// then the moved one is cancelled.
	f.Add([]byte{1, 1, 3, 0, 1, 2, 3, 0, 1, 3, 3, 0, 2, 0, 2, 2})
	f.Add([]byte{3, 40, 1, 0, 200, 3, 5, 255, 3, 4, 0, 2, 0, 5, 255, 3})
	for seed := uint64(1); seed <= 8; seed++ {
		r := NewRNG(seed)
		ops := make([]byte, 64*int(seed))
		for i := range ops {
			ops[i] = byte(r.Uint64())
		}
		f.Add(ops)
	}
	f.Fuzz(checkKernelMatchesReference)
}

// BenchmarkKernelDeadlineChurn models the simulated request path: each op
// schedules a request's 30 s deadline and a µs-scale completion that
// cancels it, then advances the clock 100 µs, so a few requests overlap.
func BenchmarkKernelDeadlineChurn(b *testing.B) {
	k := NewKernel()
	expire := func() { panic("sim: benchmark deadline fired") }
	type request struct {
		deadline Timer
		complete func()
	}
	reqs := make([]request, 8)
	for i := range reqs {
		r := &reqs[i]
		r.complete = func() { r.deadline.Cancel() }
	}
	rng := NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &reqs[i%len(reqs)]
		r.deadline = k.After(30*Second, expire)
		k.After(Duration(1+rng.Intn(200))*Microsecond, r.complete)
		k.RunFor(100 * Microsecond)
	}
}
