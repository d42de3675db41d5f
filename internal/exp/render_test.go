package exp

import (
	"strings"
	"testing"

	"repro/internal/cycles"
)

// Render-logic tests driven by synthetic results: they pin the shape
// criteria themselves without re-running the (already-tested) drivers.

func TestTable2RenderFlagsBadShapes(t *testing.T) {
	good := &Table2Result{Rows: []Table2Row{
		{Label: "S_I", Host: "seattle", MeasuredSec: 3, PaperSec: 3, RAMDisk: true},
		{Label: "S_I", Host: "tacoma", MeasuredSec: 4, PaperSec: 4, RAMDisk: true},
		{Label: "S_II", Host: "seattle", MeasuredSec: 2, PaperSec: 2, RAMDisk: true},
		{Label: "S_II", Host: "tacoma", MeasuredSec: 3, PaperSec: 3, RAMDisk: true},
		{Label: "S_III", Host: "seattle", MeasuredSec: 4, PaperSec: 4, RAMDisk: true},
		{Label: "S_III", Host: "tacoma", MeasuredSec: 16, PaperSec: 16},
		{Label: "S_IV", Host: "seattle", MeasuredSec: 22, PaperSec: 22, RAMDisk: true},
		{Label: "S_IV", Host: "tacoma", MeasuredSec: 42, PaperSec: 42, RAMDisk: true},
	}}
	if strings.Contains(good.Render(), "FAIL") {
		t.Fatalf("paper-exact rows failed shape checks:\n%s", good.Render())
	}
	// Invert seattle/tacoma for one service: the ordering check must fail.
	bad := &Table2Result{Rows: append([]Table2Row(nil), good.Rows...)}
	bad.Rows[0].MeasuredSec, bad.Rows[1].MeasuredSec = 4, 3
	if !strings.Contains(bad.Render(), "FAIL") {
		t.Fatal("inverted host ordering passed shape checks")
	}
}

func TestTable2MaxRelErr(t *testing.T) {
	r := &Table2Result{Rows: []Table2Row{
		{MeasuredSec: 11, PaperSec: 10},
		{MeasuredSec: 8, PaperSec: 10},
	}}
	if got := r.maxRelErr(); got != 0.2 {
		t.Fatalf("maxRelErr = %v, want 0.2", got)
	}
}

func TestTable4RenderChecksRatioAndCloseness(t *testing.T) {
	mk := func(uml cycles.Cycles) *Table4Result {
		return &Table4Result{Rows: []Table4Row{
			{
				Syscall: "getpid", UMLCycles: uml, HostCycles: 1064,
				PaperUML: 26648, PaperHost: 1064, Slowdown: float64(uml) / 1064,
			},
			{
				Syscall: "gettimeofday", UMLCycles: 36969, HostCycles: 1370,
				PaperUML: 37004, PaperHost: 1368, Slowdown: 27,
			},
		}}
	}
	if strings.Contains(mk(26648).Render(), "FAIL") {
		t.Fatal("paper-exact row failed")
	}
	if !strings.Contains(mk(5000).Render(), "FAIL") {
		t.Fatal("5x slowdown passed the ≥15x check")
	}
}

func TestFig4ShapeChecks(t *testing.T) {
	mk := func(split float64, seattleMs, tacomaMs float64) *Fig4Result {
		return &Fig4Result{Points: []Fig4Point{
			{DatasetMB: 64, SeattleServed: int(split * 1000), TacomaServed: 1000,
				SeattleRespMs: 1, TacomaRespMs: 1},
			{DatasetMB: 2048, SeattleServed: int(split * 1000), TacomaServed: 1000,
				SeattleRespMs: seattleMs, TacomaRespMs: tacomaMs},
		}}
	}
	if s, r, rises := mk(2.0, 5, 5).shape(); !s || !r || !rises {
		t.Fatal("good shape rejected")
	}
	if s, _, _ := mk(3.0, 5, 5).shape(); s {
		t.Fatal("3:1 split passed the ≈2:1 check")
	}
	if _, r, _ := mk(2.0, 5, 2).shape(); r {
		t.Fatal("diverging response times passed")
	}
	if _, _, rises := mk(2.0, 0.5, 0.5).shape(); rises {
		t.Fatal("falling response time passed the rise check")
	}
}

func TestFig6SlowdownAt(t *testing.T) {
	r := &Fig6Result{
		Datasets: []int{64},
		Points: []Fig6Point{
			{Scenario: ScenarioVSN, DatasetMB: 64, RespMs: 1.3},
			{Scenario: ScenarioHostSwitch, DatasetMB: 64, RespMs: 1.1},
			{Scenario: ScenarioHostDirect, DatasetMB: 64, RespMs: 1.0},
		},
	}
	if got := r.SlowdownAt(64); got != 1.3 {
		t.Fatalf("SlowdownAt = %v", got)
	}
	if got := r.SlowdownAt(999); got != 0 {
		t.Fatalf("missing dataset slowdown = %v", got)
	}
	if strings.Contains(r.Render(), "FAIL") {
		t.Fatalf("ordered modest slowdown failed:\n%s", r.Render())
	}
}

func TestDownloadFitOnSyntheticLine(t *testing.T) {
	r := &DownloadResult{Rows: []DownloadRow{
		{ImageMB: 10, MeasuredSec: 0.852},
		{ImageMB: 20, MeasuredSec: 1.704},
		{ImageMB: 40, MeasuredSec: 3.408},
	}}
	r.fit()
	if r.R2 < 0.999999 {
		t.Fatalf("R² = %v for an exact line", r.R2)
	}
	if r.Slope < 0.085 || r.Slope > 0.086 {
		t.Fatalf("slope = %v", r.Slope)
	}
	if strings.Contains(r.Render(), "FAIL") {
		t.Fatalf("exact line failed:\n%s", r.Render())
	}
}

func TestAttackRenderSideBySide(t *testing.T) {
	r := &AttackResult{
		Attacks: 10, Crashes: 10,
		BaselineRespMs: 1.6, UnderAttackRespMs: 1.65,
		WebAlive:   true,
		WebPS:      []string{"PID", "1 init"},
		HoneypotPS: []string{"PID", "9 init", "10 ghttpd"},
	}
	out := r.Render()
	if !strings.Contains(out, "ghttpd") || !strings.Contains(out, "|") {
		t.Fatalf("side-by-side ps missing:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("healthy attack result failed:\n%s", out)
	}
	r.WebAlive = false
	if !strings.Contains(r.Render(), "FAIL") {
		t.Fatal("dead web service passed isolation check")
	}
}

func TestSweepMonotoneDetector(t *testing.T) {
	mono := &SweepResult{Points: []SweepPoint{
		{Factor: 1.0, VictimMs: 5}, {Factor: 1.5, VictimMs: 4}, {Factor: 2.0, VictimMs: 4},
	}}
	if !mono.monotone() {
		t.Fatal("monotone series rejected")
	}
	bumpy := &SweepResult{Points: []SweepPoint{
		{Factor: 1.0, VictimMs: 4}, {Factor: 1.5, VictimMs: 5},
	}}
	if bumpy.monotone() {
		t.Fatal("rising series accepted")
	}
}

func TestBreakdownSumsDetector(t *testing.T) {
	if !sumsOK([]BreakdownPoint{{SwitchHopMs: 1, ServiceMs: 2, TotalMs: 3}}) {
		t.Fatal("exact sum rejected")
	}
	if sumsOK([]BreakdownPoint{{SwitchHopMs: 1, ServiceMs: 2, TotalMs: 4}}) {
		t.Fatal("wrong sum accepted")
	}
}

func TestShapeCheckFormatting(t *testing.T) {
	if !strings.Contains(shapeCheck("x", true), "PASS") ||
		!strings.Contains(shapeCheck("x", false), "FAIL") {
		t.Fatal("shapeCheck labels wrong")
	}
}

func TestAutoscaleRenderFailsWhenNothingServed(t *testing.T) {
	good := &AutoscaleResult{
		ScaleUpAtS: 1, MaxCapacity: 3, FinalCapacity: 1, Ups: 2, Downs: 2,
		FaultLog: []string{"crash", "restore"}, Issued: 100, Completed: 100,
		DigestMatch: true, Deterministic: true,
	}
	if out := good.Render(); strings.Contains(out, "FAIL") {
		t.Fatalf("healthy autoscale result failed:\n%s", out)
	}
	bad := *good
	bad.Completed, bad.Dropped = 0, 100
	if !strings.Contains(bad.Render(), "shape[FAIL]") {
		t.Fatal("a ramp that completed nothing and dropped every request passed")
	}
}

func TestReqtraceRenderFailsWhenNothingRetained(t *testing.T) {
	good := &ReqtraceOverheadResult{
		Ops: 100, Trials: 1, BareNs: 100, TracedNs: 101, OverheadPct: 1,
		Sampled: 100, Retained: 10, DeterministicRetention: true,
	}
	if out := good.Render(); strings.Contains(out, "FAIL") {
		t.Fatalf("healthy reqtrace result failed:\n%s", out)
	}
	bad := *good
	bad.Retained = 0
	if !strings.Contains(bad.Render(), "shape[FAIL]") {
		t.Fatal("a retain-all pass that kept nothing passed")
	}
}
