// Package flight is the black-box flight recorder of the SODA
// reproduction: a structured, leveled, label-carrying logger feeding a
// bounded in-memory ring buffer that continuously captures log records,
// span ends, SODA events, and periodic metric snapshots. When something
// goes wrong — an SLO violation, a host death, a recovery — the recorder
// freezes a window of pre/post context into an immutable incident bundle
// for forensic inspection (sodad /incidents, sodactl incident show).
//
// The package follows the repo's nil-safe instrumentation discipline:
// every method on a nil *Logger or nil *Recorder is a no-op, so wiring
// code logs unconditionally and a disabled recorder costs one nil check.
// Record storage is fixed-size (a value copy into a preallocated ring
// slot), so steady-state logging does not allocate.
//
// flight deliberately does not import internal/soda: the control plane
// imports the recorder, and event→record glue lives in the testbed and
// daemon wiring. This keeps the dependency arrow pointing the same way as
// the telemetry package's.
package flight

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Level is a log severity. Records below a logger's minimum level are
// dropped before they reach the ring.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int8(l))
	}
}

// ParseLevel parses a level name as produced by Level.String.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelDebug, fmt.Errorf("flight: unknown level %q", s)
}

// MaxLabels bounds the labels carried by one record (bound labels plus
// call-site labels); extras are silently dropped. Fixed so a Record has
// no variable-size parts and ring writes stay allocation-free.
const MaxLabels = 4

// Record is one captured log entry. It is a plain value — writing one
// into the ring is a struct copy, no heap allocation.
type Record struct {
	// Seq is the record's position in the recorder's total stream,
	// starting at 0. Seq monotonically increases even as the ring wraps.
	Seq uint64
	// At is the record timestamp as an offset from the recorder's clock
	// epoch (virtual time under the simulation kernel).
	At time.Duration
	// Level is the record severity.
	Level Level
	// Comp is the emitting component ("master", "daemon", "switch", ...).
	Comp string
	// Msg is the log message.
	Msg string
	// Trace is the correlated trace ID, or 0 when none.
	Trace uint64

	n      uint8
	labels [MaxLabels]telemetry.Label
}

// Labels returns a copy of the record's labels.
func (r *Record) Labels() []telemetry.Label {
	if r.n == 0 {
		return nil
	}
	return append([]telemetry.Label(nil), r.labels[:r.n]...)
}

// RecordView is the JSON form of a Record. Labels render as a map, whose
// keys encoding/json sorts — incident bundles marshal byte-identically
// across same-seed runs.
type RecordView struct {
	Seq    uint64            `json:"seq"`
	AtSec  float64           `json:"at_s"`
	Level  string            `json:"level"`
	Comp   string            `json:"component"`
	Msg    string            `json:"msg"`
	Trace  uint64            `json:"trace,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
}

// View converts the record to its JSON form.
func (r *Record) View() RecordView {
	v := RecordView{
		Seq:   r.Seq,
		AtSec: r.At.Seconds(),
		Level: r.Level.String(),
		Comp:  r.Comp,
		Msg:   r.Msg,
		Trace: r.Trace,
	}
	if r.n > 0 {
		v.Labels = make(map[string]string, r.n)
		for _, l := range r.labels[:r.n] {
			v.Labels[l.Key] = l.Value
		}
	}
	return v
}

// core is the shared state behind a family of derived loggers.
type core struct {
	rec     *Recorder
	clock   func() time.Duration
	min     atomic.Int32
	console atomic.Pointer[consoleSink]
}

type consoleSink struct {
	mu sync.Mutex
	w  io.Writer
}

// Logger emits structured records into a Recorder and, optionally, echoes
// them to a console writer. Loggers are cheap immutable values derived
// from one shared core: Component and WithTrace return new loggers that
// narrow the context without copying buffers. All methods are safe on a
// nil logger.
type Logger struct {
	c     *core
	comp  string
	trace uint64
	n     uint8
	bound [MaxLabels]telemetry.Label
}

// NewLogger returns the root logger writing into rec. A nil recorder
// yields a nil (no-op) logger.
func NewLogger(rec *Recorder) *Logger {
	if rec == nil {
		return nil
	}
	return &Logger{c: &core{rec: rec, clock: rec.opt.Clock}}
}

// NewConsole returns a recorder-less logger that renders records to w,
// timestamped by wall time since construction. It backs CLI diagnostics
// (sodabench) where a ring buffer would be pointless. A nil writer yields
// a nil logger.
func NewConsole(w io.Writer) *Logger {
	if w == nil {
		return nil
	}
	epoch := time.Now()
	c := &core{clock: func() time.Duration { return time.Since(epoch) }}
	c.console.Store(&consoleSink{w: w})
	return &Logger{c: c}
}

// SetConsole mirrors every record this logger family emits to w, in
// addition to the ring. Pass nil to stop mirroring. Nil-safe.
func (l *Logger) SetConsole(w io.Writer) {
	if l == nil {
		return
	}
	if w == nil {
		l.c.console.Store(nil)
		return
	}
	l.c.console.Store(&consoleSink{w: w})
}

// SetMinLevel drops records below lv for the whole logger family.
// Nil-safe.
func (l *Logger) SetMinLevel(lv Level) {
	if l == nil {
		return
	}
	l.c.min.Store(int32(lv))
}

// Enabled reports whether records at lv would be kept. False on nil.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && lv >= Level(l.c.min.Load())
}

// Component returns a derived logger stamped with the component name and
// the given bound labels (on top of the parent's). Nil-safe.
func (l *Logger) Component(name string, labels ...telemetry.Label) *Logger {
	if l == nil {
		return nil
	}
	d := &Logger{c: l.c, comp: name, trace: l.trace, n: l.n, bound: l.bound}
	for _, lb := range labels {
		if d.n < MaxLabels {
			d.bound[d.n] = lb
			d.n++
		}
	}
	return d
}

// WithTrace returns a derived logger whose records carry the trace ID.
// Nil-safe.
func (l *Logger) WithTrace(id uint64) *Logger {
	if l == nil {
		return nil
	}
	d := *l
	d.trace = id
	return &d
}

// Debug logs at debug level. Nil-safe.
func (l *Logger) Debug(msg string, labels ...telemetry.Label) { l.log(LevelDebug, msg, labels) }

// Info logs at info level. Nil-safe.
func (l *Logger) Info(msg string, labels ...telemetry.Label) { l.log(LevelInfo, msg, labels) }

// Warn logs at warn level. Nil-safe.
func (l *Logger) Warn(msg string, labels ...telemetry.Label) { l.log(LevelWarn, msg, labels) }

// Error logs at error level. Nil-safe.
func (l *Logger) Error(msg string, labels ...telemetry.Label) { l.log(LevelError, msg, labels) }

// Infof logs a formatted message at info level. Nil-safe.
func (l *Logger) Infof(format string, args ...any) { l.logf(LevelInfo, format, args) }

// Errorf logs a formatted message at error level. Nil-safe.
func (l *Logger) Errorf(format string, args ...any) { l.logf(LevelError, format, args) }

func (l *Logger) logf(lv Level, format string, args []any) {
	if !l.Enabled(lv) {
		return
	}
	l.log(lv, fmt.Sprintf(format, args...), nil)
}

func (l *Logger) log(lv Level, msg string, labels []telemetry.Label) {
	if !l.Enabled(lv) {
		return
	}
	rec := Record{
		At:     l.c.clock(),
		Level:  lv,
		Comp:   l.comp,
		Msg:    msg,
		Trace:  l.trace,
		n:      l.n,
		labels: l.bound,
	}
	for _, lb := range labels {
		if rec.n < MaxLabels {
			rec.labels[rec.n] = lb
			rec.n++
		}
	}
	if r := l.c.rec; r != nil {
		r.append(&rec)
	}
	if sink := l.c.console.Load(); sink != nil {
		sink.write(&rec)
	}
}

func (s *consoleSink) write(rec *Record) {
	var lb string
	for _, l := range rec.labels[:rec.n] {
		lb += " " + l.Key + "=" + l.Value
	}
	if rec.Trace != 0 {
		lb += fmt.Sprintf(" trace=%d", rec.Trace)
	}
	s.mu.Lock()
	fmt.Fprintf(s.w, "[%10.4f] %-5s %-10s %s%s\n",
		rec.At.Seconds(), rec.Level, rec.Comp, rec.Msg, lb)
	s.mu.Unlock()
}
