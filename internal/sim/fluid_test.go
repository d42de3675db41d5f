package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFluidSingleFlowFinishesAtWorkOverCapacity(t *testing.T) {
	k := NewKernel()
	s := NewFluidServer(k, "cpu", 100, EqualShare{}) // 100 units/sec
	var done Time
	s.Submit("job", 1, 250, nil, func() { done = k.Now() })
	k.Run()
	if done != Time(2500*Millisecond) {
		t.Fatalf("completion at %v, want 2.5s", done)
	}
}

func TestFluidEqualShareTwoIdenticalFlowsFinishTogether(t *testing.T) {
	k := NewKernel()
	s := NewFluidServer(k, "cpu", 100, EqualShare{})
	var d1, d2 Time
	s.Submit("a", 1, 100, nil, func() { d1 = k.Now() })
	s.Submit("b", 1, 100, nil, func() { d2 = k.Now() })
	k.Run()
	// Each gets 50/sec, so both finish at 2s.
	if d1 != Time(2*Second) || d2 != Time(2*Second) {
		t.Fatalf("completions %v, %v, want 2s each", d1, d2)
	}
}

func TestFluidWeightedShareSplitsTwoToOne(t *testing.T) {
	k := NewKernel()
	s := NewFluidServer(k, "link", 90, WeightedShare{})
	var dHeavy, dLight Time
	// Weight 2 gets 60/sec, weight 1 gets 30/sec.
	s.Submit("heavy", 2, 120, nil, func() { dHeavy = k.Now() })
	s.Submit("light", 1, 120, nil, func() { dLight = k.Now() })
	k.Run()
	if dHeavy != Time(2*Second) {
		t.Fatalf("heavy done at %v, want 2s", dHeavy)
	}
	// After heavy leaves at 2s, light has 120-60=60 left at full 90/sec:
	// 2s + 60/90 s = 2.6667s.
	want := 2 + 60.0/90.0
	if !approxEq(dLight.Seconds(), want, 1e-9) {
		t.Fatalf("light done at %vs, want %vs", dLight.Seconds(), want)
	}
}

func TestFluidLateArrivalSlowsExistingFlow(t *testing.T) {
	k := NewKernel()
	s := NewFluidServer(k, "cpu", 100, EqualShare{})
	var dA Time
	s.Submit("a", 1, 100, nil, func() { dA = k.Now() })
	// b arrives at 0.5s; a has 50 left, now served at 50/sec → +1s → 1.5s.
	k.After(500*Millisecond, func() {
		s.Submit("b", 1, 1000, nil, nil)
	})
	k.Run()
	if !approxEq(dA.Seconds(), 1.5, 1e-9) {
		t.Fatalf("a done at %v, want 1.5s", dA)
	}
}

func TestFluidCancelRemovesFlowAndSpeedsOthers(t *testing.T) {
	k := NewKernel()
	s := NewFluidServer(k, "cpu", 100, EqualShare{})
	var dA Time
	var fB *Flow
	s.Submit("a", 1, 100, nil, func() { dA = k.Now() })
	fB = s.Submit("b", 1, 1e9, nil, func() { t.Error("cancelled flow completed") })
	k.After(time500(), func() {
		if !s.Cancel(fB) {
			t.Error("cancel returned false")
		}
		if s.Cancel(fB) {
			t.Error("double cancel returned true")
		}
	})
	k.Run()
	// a: 0.5s at 50/sec = 25 done, then 75 left at 100/sec = 0.75s → 1.25s.
	if !approxEq(dA.Seconds(), 1.25, 1e-9) {
		t.Fatalf("a done at %v, want 1.25s", dA)
	}
	if fB.Active() {
		t.Fatal("cancelled flow still active")
	}
}

func time500() Duration { return 500 * Millisecond }

func TestFluidZeroWorkCompletesImmediately(t *testing.T) {
	k := NewKernel()
	s := NewFluidServer(k, "cpu", 10, EqualShare{})
	fired := false
	s.Submit("empty", 1, 0, nil, func() { fired = true })
	k.Run()
	if !fired {
		t.Fatal("zero-work flow never completed")
	}
	if k.Now() != 0 {
		t.Fatalf("clock advanced to %v for zero work", k.Now())
	}
}

func TestFluidAddWorkExtendsCompletion(t *testing.T) {
	k := NewKernel()
	s := NewFluidServer(k, "cpu", 100, EqualShare{})
	var done Time
	f := s.Submit("grow", 1, 100, nil, func() { done = k.Now() })
	k.After(500*Millisecond, func() { f.AddWork(50) })
	k.Run()
	if !approxEq(done.Seconds(), 1.5, 1e-9) {
		t.Fatalf("done at %v, want 1.5s", done)
	}
}

func TestFluidSetCapacityMidFlight(t *testing.T) {
	k := NewKernel()
	s := NewFluidServer(k, "cpu", 100, EqualShare{})
	var done Time
	s.Submit("j", 1, 100, nil, func() { done = k.Now() })
	k.After(500*Millisecond, func() { s.SetCapacity(50) })
	k.Run()
	// 50 done in first 0.5s, remaining 50 at 50/sec = 1s → total 1.5s.
	if !approxEq(done.Seconds(), 1.5, 1e-9) {
		t.Fatalf("done at %v, want 1.5s", done)
	}
}

func TestFluidPolicySwapMidFlight(t *testing.T) {
	k := NewKernel()
	s := NewFluidServer(k, "cpu", 100, EqualShare{})
	var dHeavy Time
	s.Submit("heavy", 3, 100, nil, func() { dHeavy = k.Now() })
	s.Submit("light", 1, 1e9, nil, nil)
	k.After(Second, func() { s.SetPolicy(WeightedShare{}) })
	k.Run()
	// First 1s equal share: heavy serves 50. Then weighted 3:1: heavy at
	// 75/sec, 50 left → 2/3 s. Total 1.6667s.
	want := 1 + 50.0/75.0
	if !approxEq(dHeavy.Seconds(), want, 1e-9) {
		t.Fatalf("heavy done at %vs, want %vs", dHeavy.Seconds(), want)
	}
}

func TestFluidServedAccounting(t *testing.T) {
	k := NewKernel()
	s := NewFluidServer(k, "cpu", 100, EqualShare{})
	f := s.Submit("j", 1, 100, nil, nil)
	k.RunUntil(Time(500 * Millisecond))
	if !approxEq(f.Served(), 50, 1e-9) {
		t.Fatalf("served = %v, want 50", f.Served())
	}
	if !approxEq(f.Remaining(), 50, 1e-9) {
		t.Fatalf("remaining = %v, want 50", f.Remaining())
	}
}

func TestFluidUtilisation(t *testing.T) {
	k := NewKernel()
	s := NewFluidServer(k, "cpu", 100, EqualShare{})
	s.Submit("j", 1, 100, nil, nil) // busy for 1s
	k.RunUntil(Time(2 * Second))
	if !approxEq(s.Utilisation(), 0.5, 1e-9) {
		t.Fatalf("utilisation = %v, want 0.5", s.Utilisation())
	}
}

func TestFluidConservationProperty(t *testing.T) {
	// Property: with any mix of flow sizes, total served work equals total
	// submitted work once the server drains, and completion times are
	// non-decreasing in submitted size for equal-weight simultaneous flows.
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		k := NewKernel()
		s := NewFluidServer(k, "cpu", 1000, EqualShare{})
		n := 2 + r.Intn(8)
		var total float64
		sizes := make([]float64, n)
		dones := make([]Time, n)
		for i := 0; i < n; i++ {
			sizes[i] = 1 + r.Float64()*500
			total += sizes[i]
			i := i
			s.Submit("f", 1, sizes[i], nil, func() { dones[i] = k.Now() })
		}
		end := k.Run()
		if !approxEq(s.TotalServed, total, 1e-6*total) {
			return false
		}
		// Makespan = total/capacity under work conservation (up to the
		// fluid model's completion tolerance).
		if !approxEq(end.Seconds(), total/1000, 1e-6*(1+total/1000)) {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				// Strictly smaller flows finish no later, modulo the
				// ≥1 ns event clamp.
				if sizes[i] < sizes[j] && dones[i] > dones[j]+Time(10) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// favourite gives the whole capacity to the class of the heaviest flow and
// starves the rest. Every flow is its own class, keyed by an id carried
// in Meta and weighted by Flow.Weight.
type favourite struct{}

func (favourite) Classify(f *Flow) (uint64, float64) { return f.Meta.(*testMeta).id, f.Weight }

func (favourite) Divide(capacity float64, classes []*ShareClass) {
	best := classes[0]
	for _, c := range classes {
		if c.Weight > best.Weight {
			best = c
		}
		c.Rate = 0
	}
	best.Rate = capacity
}

// testMeta identifies a test flow to the class-keyed test policies.
type testMeta struct {
	id    uint64 // unique per flow
	group uint64 // shared by the flows of one sender
}

func TestFluidStarvedFlowsResumeOnSetChange(t *testing.T) {
	// A policy that gives all capacity to the max-weight flow starves the
	// rest; when the favourite leaves, the rest must be rescheduled.
	k := NewKernel()
	s := NewFluidServer(k, "cpu", 100, favourite{})
	var dLow Time
	s.Submit("hi", 10, 100, &testMeta{id: 1}, nil)
	s.Submit("lo", 1, 100, &testMeta{id: 2}, func() { dLow = k.Now() })
	k.Run()
	if !approxEq(dLow.Seconds(), 2.0, 1e-9) {
		t.Fatalf("starved flow done at %v, want 2s", dLow)
	}
}

// --- Differential test against the reference O(n) engine -----------------

// refFlow and refServer are the fluid engine as it was before per-class
// virtual time: every arrival and departure settles every flow, re-runs a
// policy that sets each flow's rate, and scans every flow for the next
// completion. They exist only as the oracle of FuzzFluidMatchesReference.
type refFlow struct {
	weight    float64
	meta      *testMeta
	remaining float64
	rate      float64
	served    float64
	onDone    func()
	server    *refServer
	index     int
}

type refPolicy func(capacity float64, flows []*refFlow)

type refServer struct {
	k           *Kernel
	capacity    float64
	policy      refPolicy
	flows       []*refFlow
	settled     Time
	next        Timer
	totalServed float64
}

func newRefServer(k *Kernel, capacity float64, policy refPolicy) *refServer {
	return &refServer{k: k, capacity: capacity, policy: policy, settled: k.Now()}
}

func (s *refServer) submit(weight, work float64, meta *testMeta, onDone func()) *refFlow {
	f := &refFlow{weight: weight, meta: meta, remaining: work, onDone: onDone, index: -1}
	if work <= 0 {
		s.k.Immediately(onDone)
		return f
	}
	s.settle()
	f.server = s
	f.index = len(s.flows)
	s.flows = append(s.flows, f)
	s.reschedule()
	return f
}

func (s *refServer) cancel(f *refFlow) {
	if f.server != s {
		return
	}
	s.settle()
	s.detach(f)
	s.reschedule()
}

func (s *refServer) addWork(f *refFlow, units float64) {
	if f.server == nil {
		f.remaining += units
		return
	}
	s.settle()
	f.remaining += units
	s.reschedule()
}

func (s *refServer) setWeight(f *refFlow, w float64) {
	s.settle()
	f.weight = w
	s.reschedule()
}

func (s *refServer) setCapacity(c float64) {
	s.settle()
	s.capacity = c
	s.reschedule()
}

func (s *refServer) setPolicy(p refPolicy) {
	s.settle()
	s.policy = p
	s.reschedule()
}

func (s *refServer) servedOf(f *refFlow) float64 {
	if f.server != nil {
		s.settle()
	}
	return f.served
}

func (s *refServer) detach(f *refFlow) {
	i := f.index
	last := len(s.flows) - 1
	s.flows[i] = s.flows[last]
	s.flows[i].index = i
	s.flows[last] = nil
	s.flows = s.flows[:last]
	f.server = nil
	f.index = -1
	f.rate = 0
}

func (s *refServer) settle() {
	now := s.k.Now()
	dt := now.Sub(s.settled).Seconds()
	if dt > 0 {
		for _, f := range s.flows {
			served := f.rate * dt
			if served > f.remaining {
				served = f.remaining
			}
			f.remaining -= served
			f.served += served
			s.totalServed += served
		}
	}
	s.settled = now
}

func (s *refServer) reschedule() {
	s.next.Cancel()
	s.next = Timer{}
	for i := 0; i < len(s.flows); {
		f := s.flows[i]
		if f.remaining <= 1e-9*(1+f.served) {
			f.served += f.remaining
			s.totalServed += f.remaining
			f.remaining = 0
			s.detach(f)
			s.k.Immediately(f.onDone)
			continue
		}
		i++
	}
	if len(s.flows) == 0 {
		return
	}
	s.policy(s.capacity, s.flows)
	earliest := MaxTime
	for _, f := range s.flows {
		if f.rate <= 0 {
			continue
		}
		secs := f.remaining / f.rate
		if secs > 1e9 {
			continue
		}
		delta := Duration(secs * float64(Second))
		if delta < Nanosecond {
			delta = Nanosecond
		}
		if eta := s.k.Now().Add(delta); eta < earliest {
			earliest = eta
		}
	}
	if earliest == MaxTime {
		return
	}
	s.next = s.k.At(earliest, func() {
		s.next = Timer{}
		s.settle()
		s.reschedule()
	})
}

// classTable holds the per-group weights (or, for the capped policy,
// ceilings) that the class-keyed test policies read on every division,
// shared by both engines so a change reaches both.
type classTable map[uint64]float64

// groupShare splits capacity among sender groups in proportion to their
// table weights (default 1), equally within a group: the shape of the
// shaper's ShareMode and of the proportional-share CPU scheduler.
type groupShare struct{ weights classTable }

func (groupShare) Classify(f *Flow) (uint64, float64) { return f.Meta.(*testMeta).group, 1 }

func (p groupShare) weight(g uint64) float64 {
	if w, ok := p.weights[g]; ok {
		return w
	}
	return 1
}

func (p groupShare) Divide(capacity float64, classes []*ShareClass) {
	var total float64
	for _, c := range classes {
		total += p.weight(c.Key)
	}
	for _, c := range classes {
		c.Rate = capacity * p.weight(c.Key) / total
	}
}

func (p groupShare) ref(capacity float64, flows []*refFlow) {
	n := map[uint64]int{}
	for _, f := range flows {
		n[f.meta.group]++
	}
	var total float64
	for g := range n {
		total += p.weight(g)
	}
	for _, f := range flows {
		f.rate = capacity * p.weight(f.meta.group) / total / float64(n[f.meta.group])
	}
}

// groupCap gives capped groups their ceiling, scaled down when the
// ceilings exceed capacity, and splits the residual equally per flow of
// the uncapped groups: the shaper's CapMode.
type groupCap struct{ caps classTable }

func (groupCap) Classify(f *Flow) (uint64, float64) { return f.Meta.(*testMeta).group, 1 }

func (p groupCap) Divide(capacity float64, classes []*ShareClass) {
	var capped float64
	uncapped := 0
	for _, c := range classes {
		if v, ok := p.caps[c.Key]; ok {
			capped += v
		} else {
			uncapped += c.Flows()
		}
	}
	scale := 1.0
	if capped > capacity {
		scale = capacity / capped
	}
	residual := capacity
	for _, c := range classes {
		if v, ok := p.caps[c.Key]; ok {
			c.Rate = v * scale
			residual -= c.Rate
		}
	}
	for _, c := range classes {
		if _, ok := p.caps[c.Key]; !ok {
			c.Rate = max(residual, 0) / float64(uncapped) * float64(c.Flows())
		}
	}
}

func (p groupCap) ref(capacity float64, flows []*refFlow) {
	var capped float64
	uncapped := 0
	n := map[uint64]int{}
	for _, f := range flows {
		n[f.meta.group]++
	}
	for g, k := range n {
		if v, ok := p.caps[g]; ok {
			capped += v
		} else {
			uncapped += k
		}
	}
	scale := 1.0
	if capped > capacity {
		scale = capacity / capped
	}
	residual := capacity
	for g := range n {
		if v, ok := p.caps[g]; ok {
			residual -= v * scale
		}
	}
	for _, f := range flows {
		if v, ok := p.caps[f.meta.group]; ok {
			f.rate = v * scale / float64(n[f.meta.group])
		} else {
			f.rate = max(residual, 0) / float64(uncapped)
		}
	}
}

func refEqual(capacity float64, flows []*refFlow) {
	for _, f := range flows {
		f.rate = capacity / float64(len(flows))
	}
}

func refWeighted(capacity float64, flows []*refFlow) {
	var total float64
	for _, f := range flows {
		total += f.weight
	}
	for _, f := range flows {
		f.rate = capacity * f.weight / total
	}
}

func refFavourite(capacity float64, flows []*refFlow) {
	best := flows[0]
	for _, f := range flows {
		if f.weight > best.weight {
			best = f
		}
		f.rate = 0
	}
	best.rate = capacity
}

// policyPair is one share policy in both engines' forms.
type policyPair struct {
	name string
	cur  SharePolicy
	ref  refPolicy
}

func testPolicies(table classTable) []policyPair {
	return []policyPair{
		{"equal", EqualShare{}, refEqual},
		{"weighted", WeightedShare{}, refWeighted},
		{"favourite", favourite{}, refFavourite},
		{"group-share", groupShare{table}, groupShare{table}.ref},
		{"group-cap", groupCap{table}, groupCap{table}.ref},
	}
}

// checkFluidMatchesReference plays one seeded random script of flow
// operations through the engine and the reference, in lockstep on two
// kernels, and fails t on the first disagreement: a completion time
// differing by more than 1e-9 relative plus 2 ns (one ≥1 ns completion
// clamp in either engine), a probed Served or Remaining differing by
// more than 1e-9 of the flow's work plus 2 ns of full-capacity service,
// or a drained engine whose TotalServed is not the work it was given.
func checkFluidMatchesReference(t *testing.T, seed uint64, policy int) {
	r := NewRNG(seed)
	table := classTable{}
	pairs := testPolicies(table)
	pol := pairs[policy%len(pairs)]
	kc, kr := NewKernel(), NewKernel()
	capacity := 50 + 1000*r.Float64()
	cur := NewFluidServer(kc, "cur", capacity, pol.cur)
	ref := newRefServer(kr, capacity, pol.ref)

	type pair struct {
		c            *Flow
		r            *refFlow
		work         float64
		doneC, doneR Time
	}
	var flows []*pair
	var live []*pair // submitted and not cancelled; completion is checked later
	const notDone = Time(-1)
	script := []string{}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d policy %s: %s\nscript:\n  %s", seed, pol.name,
			fmt.Sprintf(format, args...), strings.Join(script, "\n  "))
	}
	served := func(p *pair) (float64, float64) { return p.c.Served(), ref.servedOf(p.r) }
	weight := func() float64 { return 0.25 + 4*r.Float64() } // distinct w.p. 1: favourite needs no ties
	pick := func() *pair {
		if len(live) == 0 {
			return nil
		}
		return live[r.Intn(len(live))]
	}

	now := Time(0)
	ops := 10 + r.Intn(60)
	for op := 0; op < ops; op++ {
		now = now.Add(Duration(r.ExpFloat64() * float64(200*Millisecond)))
		kc.RunUntil(now)
		kr.RunUntil(now)
		switch x := r.Intn(100); {
		case x < 40:
			p := &pair{work: 1 + 500*r.Float64(), doneC: notDone, doneR: notDone}
			m := &testMeta{id: uint64(len(flows)), group: uint64(r.Intn(4))}
			w := weight()
			p.c = cur.Submit("f", w, p.work, m, func() { p.doneC = kc.Now() })
			p.r = ref.submit(w, p.work, m, func() { p.doneR = kr.Now() })
			flows = append(flows, p)
			live = append(live, p)
			script = append(script, fmt.Sprintf("%v submit #%d w=%.4g work=%.4g group=%d", now, m.id, w, p.work, m.group))
		case x < 48:
			if p := pick(); p != nil {
				cur.Cancel(p.c)
				ref.cancel(p.r)
				for i := range live {
					if live[i] == p {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
				script = append(script, fmt.Sprintf("%v cancel #%d", now, p.r.meta.id))
			}
		case x < 56:
			if p := pick(); p != nil {
				u := 200 * r.Float64()
				p.c.AddWork(u)
				ref.addWork(p.r, u)
				p.work += u
				script = append(script, fmt.Sprintf("%v addwork #%d +%.4g", now, p.r.meta.id, u))
			}
		case x < 64:
			if p := pick(); p != nil {
				w := weight()
				cur.SetWeight(p.c, w)
				ref.setWeight(p.r, w)
				script = append(script, fmt.Sprintf("%v setweight #%d %.4g", now, p.r.meta.id, w))
			}
		case x < 69:
			c := 50 + 1000*r.Float64()
			cur.SetCapacity(c)
			ref.setCapacity(c)
			script = append(script, fmt.Sprintf("%v setcapacity %.4g", now, c))
		case x < 74:
			pol = pairs[r.Intn(len(pairs))]
			cur.SetPolicy(pol.cur)
			ref.setPolicy(pol.ref)
			script = append(script, fmt.Sprintf("%v setpolicy %s", now, pol.name))
		case x < 84:
			g := uint64(r.Intn(4))
			if r.Bool(0.3) {
				delete(table, g)
			} else {
				table[g] = 10 + 500*r.Float64()
			}
			cur.Redivide()
			ref.setPolicy(ref.policy)
			script = append(script, fmt.Sprintf("%v class %d -> %v", now, g, table[g]))
		default:
			script = append(script, fmt.Sprintf("%v probe", now))
			slack := 2e-9 * max(cur.Capacity(), ref.capacity)
			for _, p := range flows {
				c, rs := served(p)
				if tol := 1e-9*p.work + slack; math.Abs(c-rs) > tol {
					fail("flow #%d served %v, reference %v (tol %v)", p.r.meta.id, c, rs, tol)
				}
				if d := math.Abs(p.c.Remaining() - p.r.remaining); d > 1e-9*p.work+slack {
					fail("flow #%d remaining %v, reference %v", p.r.meta.id, p.c.Remaining(), p.r.remaining)
				}
			}
		}
	}
	// Lift every ceiling so no class stays starved, then drain.
	for g := range table {
		delete(table, g)
	}
	cur.Redivide()
	ref.setPolicy(ref.policy)
	kc.Run()
	kr.Run()
	if cur.ActiveFlows() != 0 || len(ref.flows) != 0 {
		fail("not drained: %d flows, reference %d", cur.ActiveFlows(), len(ref.flows))
	}
	var given float64
	for _, p := range flows {
		if (p.doneC == notDone) != (p.doneR == notDone) {
			fail("flow #%d completed at %v, reference at %v", p.r.meta.id, p.doneC, p.doneR)
		}
		if tol := 1e-9*float64(p.doneR) + 2; math.Abs(float64(p.doneC-p.doneR)) > tol {
			fail("flow #%d completed at %v, reference at %v (tol %vns)", p.r.meta.id, p.doneC, p.doneR, tol)
		}
		given += p.r.served
	}
	if !approxEq(cur.TotalServed, given, 1e-9*given) || !approxEq(ref.totalServed, given, 1e-9*given) {
		fail("TotalServed %v, reference %v, work given %v", cur.TotalServed, ref.totalServed, given)
	}
}

func FuzzFluidMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		for policy := uint8(0); policy < 5; policy++ {
			f.Add(seed, policy)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, policy uint8) {
		checkFluidMatchesReference(t, seed, int(policy))
	})
}

// BenchmarkFluidChurn measures one arrival plus one departure against n
// resident equal-share flows: each op submits a short flow and runs the
// kernel until it drains. The residents' work never completes.
func BenchmarkFluidChurn(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			k := NewKernel()
			s := NewFluidServer(k, "cpu", 1e9, EqualShare{})
			for i := 0; i < n; i++ {
				s.Submit("resident", 1, 1e30, nil, nil)
			}
			burst := &Flow{Label: "burst", Weight: 1}
			done := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Start(burst, 1e3, done)
				k.Run()
			}
		})
	}
}
