package sim

import "fmt"

// Kernel is a discrete-event simulation executive. Events are callbacks
// scheduled at virtual timestamps; Run dispatches them in timestamp order
// (ties broken by scheduling order, so the simulation is deterministic).
//
// Kernel is not safe for concurrent use: the entire simulation runs on the
// caller's goroutine. That is deliberate — determinism is a design goal.
//
// Fired and cancelled events are recycled through a free list, so a
// steady-state simulation schedules events without allocating; Timer
// handles carry a generation number to stay safe across recycling. A
// cancelled event leaves the queue at once.
type Kernel struct {
	now     Time
	queue   eventQueue
	seq     uint64
	running bool
	stopped bool
	free    []*event

	// far parks events scheduled beyond farHorizon — standing periodic
	// tickers, slow service timers — in an unsorted side list so they
	// don't deepen the hot heap that microsecond-scale events churn
	// through. step migrates the list into the heap once farMin, its
	// earliest time, is no later than the heap's top. A stale farMin (its
	// event was cancelled) only migrates it early, which reorders nothing.
	far    []*event
	farMin Time

	// Dispatched counts events executed since construction; useful for
	// progress assertions in tests.
	dispatched uint64
}

// farHorizon is the scheduling distance beyond which an event is parked
// in the far list instead of the heap. It only affects performance, not
// ordering: anything coarser than the data plane's µs–ms timescale and
// finer than the control plane's multi-second timers works.
const farHorizon = Duration(50 * Millisecond)

// Timer is a handle to a scheduled event. Cancel prevents a pending event
// from firing; cancelling an already-fired or already-cancelled timer is a
// no-op. The zero Timer is valid and behaves as already-fired.
type Timer struct {
	ev  *event
	gen uint64
	at  Time
}

// Cancel prevents the timer's event from firing. It reports whether the
// event was still pending. The event leaves the kernel's queue at once
// (O(log n)) and is recycled.
func (t Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	t.ev.k.cancel(t.ev)
	return true
}

// Pending reports whether the timer's event has neither fired nor been
// cancelled: both recycle the event, which bumps its generation.
func (t Timer) Pending() bool { return t.ev != nil && t.ev.gen == t.gen }

// When returns the virtual timestamp the timer is (or was) scheduled for.
func (t Timer) When() Time { return t.at }

type event struct {
	at  Time
	seq uint64
	gen uint64
	fn  func()
	k   *Kernel // owner, set when the event is allocated
	pos int     // index in k.queue, or ^slot in k.far
}

// eventQueue is a hand-rolled binary min-heap ordered by (at, seq) that
// keeps each event's pos current, so any event is removed in O(log n).
// The standard container/heap forces every comparison and swap through an
// interface call; with events this small the dispatch overhead dominated
// the scheduler's profile, so the sift loops are inlined here.
type eventQueue []*event

func (q eventQueue) less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos, q[j].pos = i, j
}

// push appends ev and restores the heap property.
func (q *eventQueue) push(ev *event) {
	ev.pos = len(*q)
	*q = append(*q, ev)
	q.up(ev.pos)
}

func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

// remove deletes the event at index i: the last event takes its place and
// sifts down with the usual early exit, or else up. (The bottom-up "hole"
// deletion strategy was tried for the root and measured slower here: the
// last array slot usually holds the most recently scheduled — and
// therefore earliest — event, which the classic sift leaves at the root.)
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	h.swap(i, n)
	h[n] = nil
	h = h[:n]
	*q = h
	start := i
	for {
		best := 2*i + 1
		if best >= n {
			break
		}
		if right := best + 1; right < n && h.less(right, best) {
			best = right
		}
		if !h.less(best, i) {
			break
		}
		h.swap(i, best)
		i = best
	}
	if i == start && i < n {
		h.up(i)
	}
}

// NewKernel returns a kernel with the clock at the epoch and an empty
// event queue.
func NewKernel() *Kernel {
	return &Kernel{farMin: MaxTime}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending returns the number of events still queued: exactly those that
// will fire if the kernel runs on.
func (k *Kernel) Pending() int { return len(k.queue) + len(k.far) }

// Dispatched returns the number of events executed so far.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would make the clock non-monotonic.
func (k *Kernel) At(t Time, fn func()) Timer {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	var ev *event
	if n := len(k.free); n > 0 {
		ev, k.free = k.free[n-1], k.free[:n-1]
	} else {
		ev = &event{k: k}
	}
	ev.at, ev.seq, ev.fn = t, k.seq, fn
	k.seq++
	if t > k.now.Add(farHorizon) {
		ev.pos = ^len(k.far)
		k.far = append(k.far, ev)
		k.farMin = min(k.farMin, t)
	} else {
		k.queue.push(ev)
	}
	return Timer{ev: ev, gen: ev.gen, at: t}
}

// After schedules fn to run d after the current virtual time. Negative
// delays panic.
func (k *Kernel) After(d Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now.Add(d), fn)
}

// Immediately schedules fn at the current timestamp, after all events
// already queued for this timestamp.
func (k *Kernel) Immediately(fn func()) Timer {
	return k.At(k.now, fn)
}

// Stop makes the currently executing Run/RunUntil return after the current
// event completes. Queued events are retained, so the simulation may be
// resumed with another Run call.
func (k *Kernel) Stop() { k.stopped = true }

// recycle returns a dequeued event to the free list, invalidating any
// outstanding Timer handles via the generation bump.
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	k.free = append(k.free, ev)
}

// cancel dequeues a pending event and recycles it.
func (k *Kernel) cancel(ev *event) {
	if ev.pos >= 0 {
		k.queue.remove(ev.pos)
	} else {
		slot, last := ^ev.pos, len(k.far)-1
		k.far[slot] = k.far[last]
		k.far[slot].pos = ^slot
		k.far[last] = nil
		k.far = k.far[:last]
		if last == 0 {
			k.farMin = MaxTime
		}
	}
	k.recycle(ev)
}

// flushFar migrates the far list into the heap. It runs only when the
// far minimum could be the next event to fire, so the standing timers
// spend almost all of their lives outside the hot heap.
func (k *Kernel) flushFar() {
	for _, ev := range k.far {
		k.queue.push(ev)
	}
	k.far = k.far[:0]
	k.farMin = MaxTime
}

// step pops and executes the earliest event. It reports whether an event
// was executed.
func (k *Kernel) step(limit Time) bool {
	if len(k.far) > 0 && (len(k.queue) == 0 || k.farMin <= k.queue[0].at) {
		k.flushFar()
	}
	if len(k.queue) == 0 {
		return false
	}
	ev := k.queue[0]
	if ev.at > limit {
		return false
	}
	k.queue.remove(0)
	at, fn := ev.at, ev.fn
	k.recycle(ev)
	if at < k.now {
		panic("sim: event queue produced a past event")
	}
	k.now = at
	k.dispatched++
	fn()
	return true
}

// Run executes events until the queue is empty or Stop is called. It
// returns the final virtual time.
func (k *Kernel) Run() Time {
	return k.RunUntil(MaxTime)
}

// RunUntil executes events with timestamps ≤ limit, then advances the clock
// to limit (if the queue ran dry or only later events remain) and returns
// the final virtual time. Calling RunUntil from inside an event callback
// panics: the kernel is single-threaded by construction.
func (k *Kernel) RunUntil(limit Time) Time {
	if k.running {
		panic("sim: RunUntil called re-entrantly from an event callback")
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()

	for !k.stopped {
		if !k.step(limit) {
			break
		}
	}
	if !k.stopped && limit != MaxTime && k.now < limit {
		k.now = limit
	}
	return k.now
}

// RunFor executes events for d of virtual time past the current clock.
func (k *Kernel) RunFor(d Duration) Time {
	return k.RunUntil(k.now.Add(d))
}

// Every schedules fn to run repeatedly with the given period, starting one
// period from now, until the returned Timer chain is cancelled via the
// returned *Ticker.
func (k *Kernel) Every(period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &Ticker{k: k, period: period}
	t.tick = func() {
		fn()
		if !t.stopped {
			t.arm()
		}
	}
	t.arm()
	return t
}

// Ticker repeatedly fires a callback at a fixed virtual period.
type Ticker struct {
	k       *Kernel
	period  Duration
	tick    func()
	timer   Timer
	stopped bool
}

func (t *Ticker) arm() { t.timer = t.k.After(t.period, t.tick) }

// Stop cancels future ticks. It is idempotent.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Cancel()
}
