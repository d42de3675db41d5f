package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// Self-share attribution: a traced run records CPU profiles of its own
// process and charges every sample to the module holding its leaf frame.
// The profile is the standard gzip-compressed profile.proto written by
// runtime/pprof; the few fields needed are decoded here directly.

// layerFiles maps a path fragment of a leaf frame's source file to the
// layer its samples are charged to. The first match wins, so the split of
// sim into its kernel and fluid files precedes the package itself.
var layerFiles = []struct{ fragment, layer string }{
	{"/internal/sim/fluid.go", "sim.fluid"},
	{"/internal/sim/", "sim.kernel"},
	{"/internal/simnet/", "simnet"},
	{"/internal/hostos/", "hostos"},
	{"/internal/svcswitch/", "svcswitch"},
	{"/internal/appsvc/", "appsvc"},
	{"/internal/workload/", "workload"},
	{"/internal/soda/", "soda"},
	{"/internal/accounting/", "accounting"},
	{"/internal/telemetry/", "telemetry"},
	{"/internal/journal/", "journal"},
	{"/internal/uml/", "uml"},
	{"/internal/image/", "image"},
	{"/internal/realswitch/", "realswitch"},
}

// layerOf returns the layer a leaf frame belongs to: a module from
// layerFiles, "runtime" for the Go runtime, or "" for anything else.
func layerOf(file, function string) string {
	file = "/" + strings.TrimPrefix(file, "/")
	for _, lf := range layerFiles {
		if strings.Contains(file, lf.fragment) {
			return lf.layer
		}
	}
	if strings.HasPrefix(function, "runtime.") {
		return "runtime"
	}
	return ""
}

// tracer measures the layers during the measured phases of a traced run
// only. Each phase runs under a CPU profile of its own, and the runtime's
// counters are read at its start and end; set-up, warm-up and drain fall
// outside every phase, so none of their work is charged to a layer. A nil
// tracer measures nothing.
type tracer struct {
	buf     bytes.Buffer
	rt      rtStats            // at the start of the open phase
	weights map[string]float64 // profile sample weight per layer, "" for the rest
	gcCPU   float64            // GC CPU seconds over every phase
	busyCPU float64            // non-idle CPU seconds over every phase
	allocs  uint64             // heap allocations over every phase
}

func newTracer() *tracer { return &tracer{weights: map[string]float64{}} }

// begin opens a measured phase.
func (t *tracer) begin() error {
	if t == nil {
		return nil
	}
	t.buf.Reset()
	if err := pprof.StartCPUProfile(&t.buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	t.rt = readRuntime()
	return nil
}

// end closes the phase begin opened and adds its profile and counters to
// the totals.
func (t *tracer) end() error {
	if t == nil {
		return nil
	}
	rt := readRuntime()
	pprof.StopCPUProfile()
	w, err := leafWeights(t.buf.Bytes())
	if err != nil {
		return err
	}
	for layer, x := range w {
		t.weights[layer] += x
	}
	t.gcCPU += rt.gcCPU - t.rt.gcCPU
	t.busyCPU += (rt.totalCPU - rt.idleCPU) - (t.rt.totalCPU - t.rt.idleCPU)
	t.allocs += rt.allocs - t.rt.allocs
	return nil
}

// setTrace stores what a tracer measured over phases in which ops
// operations completed: every layer's self share (0 for layers without
// samples) under its "<layer>.self_share" metric, and the runtime layer's
// GC share and allocations per operation.
func (r *report) setTrace(t *tracer, ops int64) {
	shares := sharesOf(t.weights)
	for _, d := range perLayer {
		if layer, ok := strings.CutSuffix(d.Name, ".self_share"); ok {
			r.values[d.Name] = shares[layer]
		}
	}
	if t.busyCPU > 0 {
		r.values["runtime.gc_share"] = t.gcCPU / t.busyCPU
	}
	if ops > 0 {
		r.values["runtime.allocs_per_op"] = float64(t.allocs) / float64(ops)
	}
}

// leafShares decodes a gzip-compressed CPU profile and returns, per layer,
// the fraction of sample weight whose leaf frame lies in that layer.
func leafShares(gz []byte) (map[string]float64, error) {
	w, err := leafWeights(gz)
	if err != nil {
		return nil, err
	}
	return sharesOf(w), nil
}

// sharesOf turns sample weights per layer into fractions of their total.
// Weight outside every layer (key "") counts in the total only.
func sharesOf(weights map[string]float64) map[string]float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares
	}
	for layer, w := range weights {
		if layer != "" {
			shares[layer] = w / total
		}
	}
	return shares
}

// leafWeights decodes a gzip-compressed CPU profile and returns the sample
// weight per layer of the leaf frame, "" for frames outside every layer.
func leafWeights(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	funcs := map[uint64]string{} // function id → layer
	for _, f := range prof.functions {
		funcs[f.id] = layerOf(prof.str(f.filename), prof.str(f.name))
	}
	locs := map[uint64]string{} // location id → layer of its innermost line
	for _, l := range prof.locations {
		if len(l.funcIDs) > 0 {
			locs[l.id] = funcs[l.funcIDs[0]]
		}
	}
	weights := map[string]float64{}
	for _, s := range prof.samples {
		if len(s.locIDs) == 0 || len(s.values) == 0 {
			continue
		}
		weights[locs[s.locIDs[0]]] += float64(s.values[0])
	}
	return weights, nil
}

// profile holds the decoded subset of profile.proto.
type profile struct {
	samples   []pSample
	locations []pLocation
	functions []pFunction
	strings   []string
}

type pSample struct {
	locIDs []uint64
	values []int64
}

type pLocation struct {
	id      uint64
	funcIDs []uint64 // one per line, innermost first
}

type pFunction struct {
	id             uint64
	name, filename int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID       = 1
	fFunctionName     = 2
	fFunctionFilename = 4
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{}
	err := walk(b, func(field int, wire int, v uint64, data []byte) error {
		var err error
		switch {
		case field == fProfileSample && wire == 2:
			var s pSample
			err = walk(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case fSampleLocation:
					return appendVarints(&s.locIDs, w, v, d)
				case fSampleValue:
					var vs []uint64
					if err := appendVarints(&vs, w, v, d); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
		case field == fProfileLocation && wire == 2:
			var l pLocation
			err = walk(data, func(f, w int, v uint64, d []byte) error {
				switch {
				case f == fLocationID && w == 0:
					l.id = v
				case f == fLocationLine && w == 2:
					return walk(d, func(f, w int, v uint64, _ []byte) error {
						if f == fLineFunction && w == 0 {
							l.funcIDs = append(l.funcIDs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations = append(p.locations, l)
		case field == fProfileFunction && wire == 2:
			var fn pFunction
			err = walk(data, func(f, w int, v uint64, _ []byte) error {
				if w != 0 {
					return nil
				}
				switch f {
				case fFunctionID:
					fn.id = v
				case fFunctionName:
					fn.name = int64(v)
				case fFunctionFilename:
					fn.filename = int64(v)
				}
				return nil
			})
			p.functions = append(p.functions, fn)
		case field == fProfileStrings && wire == 2:
			p.strings = append(p.strings, string(data))
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	if wire != 2 {
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadVarint
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

var errBadVarint = errors.New("malformed varint")

// walk calls fn for every field of one protobuf message: v carries varint
// values, data the bytes of length-delimited fields. Fixed-width fields
// are skipped.
func walk(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadVarint
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadVarint
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
