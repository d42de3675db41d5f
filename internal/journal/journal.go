// Package journal is the Master's write-ahead log: an append-only
// sequence of checksummed frames recording every control-plane state
// mutation, plus periodic snapshots that bound replay time.
//
// The log models the stable storage of SODA's hosting utility: the
// leader appends synchronously before acting on a mutation, a warm
// standby tails the stream, and after a crash the surviving bytes are
// replayed to reconstruct the exact pre-crash state.  Frames are
// self-delimiting and individually checksummed so that a torn tail
// (partial final write) or a corrupted record is detected and replay
// stops cleanly at the last valid frame instead of propagating garbage.
//
// Frame layout (fixed-width integers big-endian):
//
//	[4B body length][8B FNV-1a 64 of body][body]
//	body = [uvarint seq][uvarint epoch][varint at][uvarint len(type)][type][data]
//
// data is the JSON encoding of the record's payload, marshalled once;
// the envelope around it is binary, so a record is neither re-encoded on
// append nor decoded twice on replay.  A snapshot is an ordinary record
// (type "snapshot") that carries the full serialized state; when one is
// taken the frames before it are dropped and the log restarts from the
// snapshot frame, so Bytes() is always snapshot-then-tail.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/telemetry"
)

// frameHeader is the fixed per-frame prefix: body length + checksum.
const frameHeader = 4 + 8

// SnapshotType is the record type reserved for full-state snapshots.
const SnapshotType = "snapshot"

// Record is one journaled state mutation.  Data is the JSON payload of
// the mutation; its shape is owned by the writer (internal/soda).
type Record struct {
	Seq   uint64          `json:"seq"`
	Epoch uint64          `json:"epoch"`
	At    int64           `json:"at"` // virtual nanoseconds
	Type  string          `json:"type"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// Log is an in-memory append-only journal.  It is not safe for
// concurrent use; in the simulation all appends happen on the
// single-threaded kernel.
type Log struct {
	snapshot []byte // encoded frame of the latest snapshot record, or nil
	tail     []byte // frames appended since the snapshot
	tailRecs int    // record count in tail

	seq   uint64
	epoch uint64

	onAppend []func(Record)

	bytesCtr *telemetry.Counter
	recsCtr  *telemetry.Counter
	snapsCtr *telemetry.Counter
}

// New returns an empty journal at epoch 0.
func New() *Log { return &Log{} }

// Instrument attaches journal counters to the registry.
func (l *Log) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	l.bytesCtr = reg.Counter("soda_journal_bytes_total")
	l.recsCtr = reg.Counter("soda_journal_records_total")
	l.snapsCtr = reg.Counter("soda_journal_snapshots_total")
}

// SetEpoch stamps subsequently appended records with the given epoch.
func (l *Log) SetEpoch(e uint64) { l.epoch = e }

// Epoch returns the epoch stamped on new records.
func (l *Log) Epoch() uint64 { return l.epoch }

// Seq returns the sequence number of the last appended record.
func (l *Log) Seq() uint64 { return l.seq }

// Size returns the byte length of the retained log (snapshot + tail).
func (l *Log) Size() int { return len(l.snapshot) + len(l.tail) }

// TailRecords returns the number of records since the last snapshot.
func (l *Log) TailRecords() int { return l.tailRecs }

// OnAppend registers a hook invoked for every appended record,
// including snapshots.  The standby uses this to tail the stream.
func (l *Log) OnAppend(fn func(Record)) {
	l.onAppend = append(l.onAppend, fn)
}

// Append journals one mutation and returns the record.  data is
// marshalled to JSON; a marshal failure panics, because an
// unserializable mutation is a programming error, not a runtime
// condition.
func (l *Log) Append(at int64, typ string, data any) Record {
	var rec Record
	l.tail, rec = l.appendFrame(l.tail, at, typ, data)
	l.tailRecs++
	l.notify(rec)
	return rec
}

// Snapshot journals a full-state snapshot and truncates the log to it:
// every frame before the snapshot is dropped.
func (l *Log) Snapshot(at int64, data any) Record {
	frame, rec := l.appendFrame(nil, at, SnapshotType, data)
	l.snapshot = frame
	l.tail = nil
	l.tailRecs = 0
	if l.snapsCtr != nil {
		l.snapsCtr.Inc()
	}
	l.notify(rec)
	return rec
}

// appendFrame appends the next record's frame to dst and returns the
// grown buffer and the record.
func (l *Log) appendFrame(dst []byte, at int64, typ string, data any) ([]byte, Record) {
	raw, err := json.Marshal(data)
	if err != nil {
		panic(fmt.Sprintf("journal: marshal %s: %v", typ, err))
	}
	l.seq++
	rec := Record{Seq: l.seq, Epoch: l.epoch, At: at, Type: typ, Data: raw}
	start := len(dst)
	b := append(dst, make([]byte, frameHeader)...)
	b = binary.AppendUvarint(b, rec.Seq)
	b = binary.AppendUvarint(b, rec.Epoch)
	b = binary.AppendVarint(b, rec.At)
	b = binary.AppendUvarint(b, uint64(len(typ)))
	b = append(b, typ...)
	b = append(b, raw...)
	body := b[start+frameHeader:]
	binary.BigEndian.PutUint32(b[start:], uint32(len(body)))
	binary.BigEndian.PutUint64(b[start+4:], checksum(body))
	l.count(len(b) - start)
	return b, rec
}

func (l *Log) count(n int) {
	if l.bytesCtr != nil {
		l.bytesCtr.Add(int64(n))
	}
	if l.recsCtr != nil {
		l.recsCtr.Inc()
	}
}

func (l *Log) notify(rec Record) {
	for _, fn := range l.onAppend {
		fn(rec)
	}
}

// Bytes returns the durable image of the log: the snapshot frame (if
// any) followed by every frame appended since.  The copy is private to
// the caller.
func (l *Log) Bytes() []byte {
	out := make([]byte, 0, len(l.snapshot)+len(l.tail))
	out = append(out, l.snapshot...)
	out = append(out, l.tail...)
	return out
}

// checksum is FNV-1a 64 over b.
func checksum(b []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// ReplayReport describes how far a replay got and why it stopped.
type ReplayReport struct {
	Records   int    // valid records decoded
	Bytes     int    // bytes consumed by valid frames
	Truncated bool   // true if trailing bytes were discarded
	Reason    string // why replay stopped early, "" if clean
}

// Replay decodes a journal image frame by frame.  It never fails: on a
// short header, short body, checksum mismatch, or undecodable body it
// stops at the last valid record and reports the reason.  This is the
// crash-consistency contract — a torn tail write yields the longest
// valid prefix.  Each record's Data aliases data, which the caller must
// therefore not modify while it holds the records.
func Replay(data []byte) ([]Record, ReplayReport) {
	var recs []Record
	types := map[string]string{} // one string per record type, not per record
	rep := ReplayReport{}
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeader {
			rep.Truncated = true
			rep.Reason = fmt.Sprintf("short header at offset %d", off)
			break
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint64(data[off+4 : off+12])
		if n <= 0 || len(data)-off-frameHeader < n {
			rep.Truncated = true
			rep.Reason = fmt.Sprintf("short payload at offset %d (want %d bytes)", off, n)
			break
		}
		body := data[off+frameHeader : off+frameHeader+n]
		if checksum(body) != sum {
			rep.Truncated = true
			rep.Reason = fmt.Sprintf("checksum mismatch at offset %d", off)
			break
		}
		rec, err := decodeBody(body, types)
		if err != nil {
			rep.Truncated = true
			rep.Reason = fmt.Sprintf("undecodable record at offset %d: %v", off, err)
			break
		}
		recs = append(recs, rec)
		off += frameHeader + n
		rep.Records++
		rep.Bytes = off
	}
	return recs, rep
}

// decodeBody decodes a frame body into a record whose Data aliases the
// body.  types interns the record types seen so far.
func decodeBody(b []byte, types map[string]string) (Record, error) {
	var rec Record
	var n int
	if rec.Seq, n = binary.Uvarint(b); n <= 0 {
		return rec, errors.New("bad seq varint")
	}
	b = b[n:]
	if rec.Epoch, n = binary.Uvarint(b); n <= 0 {
		return rec, errors.New("bad epoch varint")
	}
	b = b[n:]
	if rec.At, n = binary.Varint(b); n <= 0 {
		return rec, errors.New("bad at varint")
	}
	b = b[n:]
	tl, n := binary.Uvarint(b)
	if n <= 0 {
		return rec, errors.New("bad type length varint")
	}
	b = b[n:]
	switch {
	case tl == 0:
		return rec, errors.New("empty type")
	case tl > uint64(len(b)):
		return rec, fmt.Errorf("type length %d past the %d bytes left", tl, len(b))
	}
	typ, ok := types[string(b[:tl])]
	if !ok {
		typ = string(b[:tl])
		types[typ] = typ
	}
	rec.Type = typ
	rec.Data = json.RawMessage(b[tl:len(b):len(b)])
	if !json.Valid(rec.Data) {
		return rec, errors.New("data is not valid JSON")
	}
	return rec, nil
}
