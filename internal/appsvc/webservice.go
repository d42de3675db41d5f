package appsvc

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// WebParams is the cost model of the static web content service (the
// paper's S_I). Requests are served by a syscall sequence plus chunked
// read/send I/O and a data copy; files outside the buffer cache are read
// from disk. Constants are documented modelling choices (DESIGN.md §5).
type WebParams struct {
	// FileBytes is the size of each served file.
	FileBytes int64
	// DatasetMB is the total dataset size — the x-axis of Figures 4/6.
	// Larger datasets overflow the buffer cache and push requests to disk.
	DatasetMB int
	// CacheMB is the buffer cache available for the dataset.
	CacheMB int
	// ChunkBytes is the read/send loop's buffer size.
	ChunkBytes int64
	// CopyCyclesPerByte is the user-space handling cost per payload byte.
	CopyCyclesPerByte float64
	// GuestIOCyclesPerByte is the *extra* per-byte cost inside a guest
	// (the UML block/net drivers double-buffer every payload byte through
	// the host, and the guest's page cache is managed by intercepted
	// syscalls).
	GuestIOCyclesPerByte float64
	// ExtraCyclesPerRequest is additional application work per request
	// (templating, CGI); 0 for the paper's static content service.
	ExtraCyclesPerRequest float64
}

// DefaultWebParams returns the calibrated web content service model with
// the given dataset size.
func DefaultWebParams(datasetMB int) WebParams {
	return WebParams{
		FileBytes:            8 << 10,
		DatasetMB:            datasetMB,
		CacheMB:              128,
		ChunkBytes:           8 << 10,
		CopyCyclesPerByte:    2.0,
		GuestIOCyclesPerByte: 12.0,
	}
}

// fixedSyscalls is the per-request syscall sequence outside the I/O loop:
// accept/recv the request, open/stat the file, close, log.
var fixedSyscalls = []cycles.Syscall{
	cycles.Socket, cycles.Recv, cycles.Open, cycles.Read,
	cycles.Gettimeofday, cycles.Close, cycles.Write, cycles.Getpid,
}

// WebService serves the static dataset from one backend.
type WebService struct {
	// Backend is where request processing executes.
	Backend Backend
	// Params is the request cost model.
	Params WebParams

	net  *simnet.Network
	rng  *sim.RNG
	free sim.FreeList[webOp]

	// Served counts completed requests; Failed counts requests dropped
	// because the backend died.
	Served, Failed int
}

// NewWebService creates a web content service on a backend.
func NewWebService(net *simnet.Network, b Backend, params WebParams, rng *sim.RNG) *WebService {
	if params.FileBytes <= 0 || params.ChunkBytes <= 0 {
		panic(fmt.Sprintf("appsvc: bad web params %+v", params))
	}
	return &WebService{Backend: b, Params: params, net: net, rng: rng}
}

// RequestCPUCycles returns the CPU cost of serving one request on the
// service's backend: the fixed syscall sequence, two syscalls (read +
// send) per chunk, and the per-byte copy cost. This is where guest and
// native deployments diverge — which is exactly the application-level
// slow-down Figure 6 measures.
func (w *WebService) RequestCPUCycles() cycles.Cycles {
	var c cycles.Cycles
	for _, s := range fixedSyscalls {
		c += w.Backend.SyscallCost(s)
	}
	chunks := (w.Params.FileBytes + w.Params.ChunkBytes - 1) / w.Params.ChunkBytes
	c += cycles.Cycles(chunks) * (w.Backend.SyscallCost(cycles.Read) + w.Backend.SyscallCost(cycles.Send))
	perByte := w.Params.CopyCyclesPerByte
	if _, guest := w.Backend.(*GuestBackend); guest {
		perByte += w.Params.GuestIOCyclesPerByte
	}
	c += cycles.Cycles(perByte*float64(w.Params.FileBytes) + w.Params.ExtraCyclesPerRequest)
	return c
}

// CacheHitProbability returns the chance a request's file is in the
// buffer cache.
func (w *WebService) CacheHitProbability() float64 {
	if w.Params.DatasetMB <= 0 || w.Params.DatasetMB <= w.Params.CacheMB {
		return 1
	}
	return float64(w.Params.CacheMB) / float64(w.Params.DatasetMB)
}

// HandleRequest serves one request arriving from clientIP: CPU
// processing, a disk read on a cache miss, then the response transfer
// from the backend's address. onDone fires when the response is fully
// delivered; a false return means the backend is down and the request
// failed immediately.
func (w *WebService) HandleRequest(clientIP simnet.IP, onDone func()) bool {
	if !w.Backend.Alive() {
		w.Failed++
		return false
	}
	op := w.getOp()
	op.clientIP, op.onDone = clientIP, onDone
	if !w.Backend.ExecCPU(w.RequestCPUCycles(), op.afterCPU) {
		w.putOp(op)
		w.Failed++
		return false
	}
	return true
}

// webOp is one request in service. Ops are pooled on the service and
// their stage callbacks are bound once, so a steady-state request
// allocates nothing. An op returns to the pool when its request ends; a
// request lost with its backend or on the wire leaves its op to the
// garbage collector.
type webOp struct {
	w         *WebService
	clientIP  simnet.IP
	onDone    func()
	afterCPU  func() // op.processed, bound once
	respond   func() // op.send, bound once
	delivered func() // op.received, bound once
}

func (w *WebService) getOp() *webOp {
	if op := w.free.Get(); op != nil {
		return op
	}
	op := &webOp{w: w}
	op.afterCPU, op.respond, op.delivered = op.processed, op.send, op.received
	return op
}

func (w *WebService) putOp(op *webOp) {
	op.clientIP, op.onDone = "", nil
	w.free.Put(op)
}

// processed runs when the request's CPU work is done: the file comes
// from the buffer cache or, on a miss, from disk.
func (op *webOp) processed() {
	w := op.w
	if w.rng.Bool(w.CacheHitProbability()) {
		op.send()
		return
	}
	if !w.Backend.ReadDisk(w.Params.FileBytes, op.respond) {
		w.Failed++
		w.putOp(op)
	}
}

// send transfers the response to the client.
func (op *webOp) send() {
	w := op.w
	if err := w.net.Transfer(w.Backend.IP(), op.clientIP, w.Params.FileBytes, op.delivered); err != nil {
		w.Failed++
		w.putOp(op)
	}
}

// received runs when the response has reached the client.
func (op *webOp) received() {
	w := op.w
	w.Served++
	fn := op.onDone
	w.putOp(op)
	if fn != nil {
		fn()
	}
}
