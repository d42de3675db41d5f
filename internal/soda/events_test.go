package soda_test

import (
	"strings"
	"testing"

	"repro/internal/soda"
)

func TestEventLifecycleSequence(t *testing.T) {
	tb := newTestbed(t)
	var rec soda.EventRecorder
	tb.Master.Observe(rec.Record)

	spec, _ := webSpec(tb, t, "web", 3)
	if _, err := tb.CreateService("genome-key", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Resize("genome-key", "web", 4); err != nil {
		t.Fatal(err)
	}
	if err := tb.Teardown("genome-key", "web"); err != nil {
		t.Fatal(err)
	}

	kinds := rec.Kinds()
	want := []soda.EventKind{
		soda.EventAdmitted,
		soda.EventNodePrimed, soda.EventNodePrimed,
		soda.EventServiceActive,
		soda.EventResized,
		soda.EventTornDown,
	}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	// The two primed events may arrive in either node order; compare as
	// multisets per position group.
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("event %d = %v, want %v (all: %v)", i, kinds[i], k, kinds)
		}
	}
	// Timestamps are non-decreasing and details informative.
	events := rec.Events()
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("event timestamps regressed")
		}
	}
	if !strings.Contains(events[0].Detail, "<3, M>") {
		t.Fatalf("admission detail = %q", events[0].Detail)
	}
	primed := events[1]
	if primed.Node == "" || !strings.Contains(primed.Detail, "boot=") {
		t.Fatalf("primed event = %+v", primed)
	}
	if !strings.Contains(events[4].Detail, "3 -> 4") {
		t.Fatalf("resize detail = %q", events[4].Detail)
	}
}

func TestEventRejection(t *testing.T) {
	tb := newTestbed(t)
	var rec soda.EventRecorder
	tb.Master.Observe(rec.Record)
	spec, _ := webSpec(tb, t, "huge", 99)
	if _, err := tb.CreateService("genome-key", spec); err == nil {
		t.Fatal("oversized admitted")
	}
	if rec.CountOf(soda.EventRejected) != 1 {
		t.Fatalf("kinds = %v", rec.Kinds())
	}
}

func TestEventStringRendering(t *testing.T) {
	e := soda.Event{Kind: soda.EventNodePrimed, Service: "web", Node: "web-0", Detail: "x"}
	if s := e.String(); !strings.Contains(s, "web/web-0") || !strings.Contains(s, "node-primed") {
		t.Fatalf("render = %q", s)
	}
	if soda.EventKind(99).String() == "" {
		t.Fatal("unknown kind renders empty")
	}
}

func TestObserveNilPanics(t *testing.T) {
	tb := newTestbed(t)
	defer func() {
		if recover() == nil {
			t.Fatal("nil observer accepted")
		}
	}()
	tb.Master.Observe(nil)
}
