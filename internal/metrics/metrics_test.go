package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	// Population stddev of this classic set is 2; sample variance = 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Sum() != 40 {
		t.Fatalf("sum = %v", s.Sum())
	}
}

func TestSummaryEmptyIsZero(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Stddev() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary not all-zero")
	}
}

func TestSummaryMergeEqualsSequential(t *testing.T) {
	if err := quick.Check(func(a, b []float64) bool {
		var whole, left, right Summary
		for _, v := range a {
			sane := math.Mod(v, 1e6)
			if math.IsNaN(sane) {
				sane = 0
			}
			whole.Observe(sane)
			left.Observe(sane)
		}
		for _, v := range b {
			sane := math.Mod(v, 1e6)
			if math.IsNaN(sane) {
				sane = 0
			}
			whole.Observe(sane)
			right.Observe(sane)
		}
		left.Merge(&right)
		if left.Count() != whole.Count() {
			return false
		}
		if whole.Count() == 0 {
			return true
		}
		tol := 1e-6 * (1 + math.Abs(whole.Mean()))
		return math.Abs(left.Mean()-whole.Mean()) < tol &&
			math.Abs(left.Variance()-whole.Variance()) < 1e-4*(1+whole.Variance())
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelStddev(t *testing.T) {
	var s Summary
	s.Observe(9)
	s.Observe(11)
	want := s.Stddev() / 10
	if math.Abs(s.RelStddev()-want) > 1e-12 {
		t.Fatalf("relstddev = %v, want %v", s.RelStddev(), want)
	}
}

func TestDurationSummary(t *testing.T) {
	var d DurationSummary
	d.ObserveDuration(100 * time.Millisecond)
	d.ObserveDuration(300 * time.Millisecond)
	if d.MeanDuration() != 200*time.Millisecond {
		t.Fatalf("mean = %v", d.MeanDuration())
	}
	if d.MinDuration() != 100*time.Millisecond || d.MaxDuration() != 300*time.Millisecond {
		t.Fatalf("min/max = %v/%v", d.MinDuration(), d.MaxDuration())
	}
}

func TestQuantilerExactQuantiles(t *testing.T) {
	var q Quantiler
	for i := 100; i >= 1; i-- { // reverse order: must sort internally
		q.Observe(float64(i))
	}
	if q.Quantile(0) != 1 || q.Quantile(1) != 100 {
		t.Fatalf("extremes = %v, %v", q.Quantile(0), q.Quantile(1))
	}
	if med := q.Median(); math.Abs(med-50.5) > 1e-12 {
		t.Fatalf("median = %v, want 50.5", med)
	}
	if p90 := q.Quantile(0.9); math.Abs(p90-90.1) > 1e-9 {
		t.Fatalf("p90 = %v, want 90.1", p90)
	}
}

func TestQuantilerEmpty(t *testing.T) {
	var q Quantiler
	if q.Quantile(0.5) != 0 || q.Count() != 0 {
		t.Fatal("empty quantiler not zero")
	}
}

func TestQuantilerInterleavedObserveAndQuery(t *testing.T) {
	var q Quantiler
	q.Observe(10)
	if q.Median() != 10 {
		t.Fatal("single-sample median")
	}
	q.Observe(20) // must re-sort after new observation
	if q.Median() != 15 {
		t.Fatalf("median = %v, want 15", q.Median())
	}
}

func TestTimeSeriesRecordAndAt(t *testing.T) {
	ts := NewTimeSeries("cpu")
	ts.Record(1*time.Second, 0.5)
	ts.Record(2*time.Second, 0.8)
	if ts.Len() != 2 {
		t.Fatalf("len = %d", ts.Len())
	}
	if ts.At(500*time.Millisecond) != 0 {
		t.Fatal("At before first sample should be 0")
	}
	if ts.At(1500*time.Millisecond) != 0.5 {
		t.Fatalf("At(1.5s) = %v", ts.At(1500*time.Millisecond))
	}
	if ts.At(5*time.Second) != 0.8 {
		t.Fatalf("At(5s) = %v", ts.At(5*time.Second))
	}
}

func TestTimeSeriesOutOfOrderPanics(t *testing.T) {
	ts := NewTimeSeries("x")
	ts.Record(2*time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order record did not panic")
		}
	}()
	ts.Record(1*time.Second, 1)
}

func TestTimeSeriesWindow(t *testing.T) {
	ts := NewTimeSeries("x")
	for i := 0; i < 10; i++ {
		ts.Record(time.Duration(i)*time.Second, float64(i))
	}
	s := ts.Window(2*time.Second, 5*time.Second)
	if s.Count() != 3 || s.Mean() != 3 {
		t.Fatalf("window stats = %v", s)
	}
}

func TestSeriesSetRenderASCII(t *testing.T) {
	var ss SeriesSet
	a := ss.Add(NewTimeSeries("web"))
	b := ss.Add(NewTimeSeries("comp"))
	for i := 1; i <= 10; i++ {
		a.Record(time.Duration(i)*time.Second, 0.33)
		b.Record(time.Duration(i)*time.Second, 0.66)
	}
	out := ss.RenderASCII(40, 10, 1.0)
	if !strings.Contains(out, "web") || !strings.Contains(out, "comp") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("glyphs missing:\n%s", out)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "Service", "Size", "Time")
	tb.AddRow("S_I", "29.3MB", "3.0 sec")
	tb.AddRowf("S_II", 15.0, 2*time.Second)
	out := tb.String()
	if !strings.Contains(out, "Table X") || !strings.Contains(out, "S_I") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`x,y`, `say "hi"`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"say ""hi"""`) {
		t.Fatalf("csv = %q", csv)
	}
}

func TestTableTooManyCellsPanics(t *testing.T) {
	tb := NewTable("", "only")
	defer func() {
		if recover() == nil {
			t.Fatal("oversized row did not panic")
		}
	}()
	tb.AddRow("a", "b")
}
