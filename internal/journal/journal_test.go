package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

type mut struct {
	Service string `json:"service"`
	N       int    `json:"n"`
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l := New()
	l.SetEpoch(1)
	for i := 0; i < 10; i++ {
		l.Append(int64(i*1000), "service-admitted", mut{Service: "web", N: i})
	}
	recs, rep := Replay(l.Bytes())
	if rep.Truncated {
		t.Fatalf("clean log reported truncated: %s", rep.Reason)
	}
	if len(recs) != 10 || rep.Records != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Epoch != 1 || r.Type != "service-admitted" {
			t.Fatalf("record %d = %+v", i, r)
		}
		var m mut
		if err := json.Unmarshal(r.Data, &m); err != nil {
			t.Fatal(err)
		}
		if m.N != i {
			t.Fatalf("record %d payload N=%d", i, m.N)
		}
	}
	if rep.Bytes != len(l.Bytes()) {
		t.Fatalf("replay consumed %d of %d bytes", rep.Bytes, l.Size())
	}
}

func TestSnapshotTruncatesPrefix(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		l.Append(0, "a", mut{N: i})
	}
	before := l.Size()
	l.Snapshot(0, mut{Service: "state", N: 5})
	if l.Size() >= before {
		t.Fatalf("snapshot did not truncate: %d -> %d bytes", before, l.Size())
	}
	l.Append(0, "b", mut{N: 6})
	recs, rep := Replay(l.Bytes())
	if rep.Truncated {
		t.Fatalf("truncated: %s", rep.Reason)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want snapshot+1", len(recs))
	}
	if recs[0].Type != SnapshotType || recs[0].Seq != 6 {
		t.Fatalf("first record = %+v, want snapshot seq 6", recs[0])
	}
	if recs[1].Type != "b" || recs[1].Seq != 7 {
		t.Fatalf("second record = %+v", recs[1])
	}
	if l.TailRecords() != 1 {
		t.Fatalf("tail records = %d, want 1", l.TailRecords())
	}
}

func TestReplayStopsAtTruncatedTail(t *testing.T) {
	l := New()
	for i := 0; i < 3; i++ {
		l.Append(0, "a", mut{N: i})
	}
	boundary := l.Size()
	l.Append(0, "a", mut{N: 3})
	full := l.Bytes()
	// A cut exactly on the last frame's boundary is a clean 3-record log.
	if recs, rep := Replay(full[:boundary]); rep.Truncated || len(recs) != 3 {
		t.Fatalf("cut on the boundary: %d records, truncated=%v (%s)", len(recs), rep.Truncated, rep.Reason)
	}
	// Every cut inside the last frame must yield exactly the valid
	// 3-record prefix, flagged truncated — never an error or a phantom
	// record.
	for end := boundary + 1; end < len(full); end++ {
		recs, rep := Replay(full[:end])
		if !rep.Truncated || len(recs) != 3 || rep.Bytes != boundary {
			t.Fatalf("cut at %d of %d: %d records, %d bytes, truncated=%v", end, len(full), len(recs), rep.Bytes, rep.Truncated)
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("cut at %d: bad prefix record %d: %+v", end, i, r)
			}
		}
	}
}

// frame wraps body in a frame header with a correct length and
// checksum, so a test can hand the envelope decoder any body.
func frame(body []byte) []byte {
	out := make([]byte, frameHeader, frameHeader+len(body))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(body)))
	binary.BigEndian.PutUint64(out[4:12], checksum(body))
	return append(out, body...)
}

// body encodes an envelope whose type length field is typeLen.
func body(typeLen uint64, typ, data string) []byte {
	b := binary.AppendUvarint(nil, 1) // seq
	b = binary.AppendUvarint(b, 0)    // epoch
	b = binary.AppendVarint(b, -5)    // at
	b = binary.AppendUvarint(b, typeLen)
	b = append(b, typ...)
	return append(b, data...)
}

// badEnvelopes are checksummed frames whose body does not decode.
var badEnvelopes = map[string][]byte{
	"truncated seq varint":     frame([]byte{0x80}),
	"truncated at varint":      frame([]byte{1, 0, 0x81}),
	"type length past payload": frame(body(10, "ab", "")),
	"empty type":               frame(body(0, "", "{}")),
	"non-JSON data":            frame(body(1, "m", "{not json")),
	"missing data":             frame(body(1, "m", "")),
	"overflowing epoch varint": frame([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}),
	"type length varint cut":   frame([]byte{1, 0, 0, 0x80}),
}

func TestReplayRejectsBadEnvelopes(t *testing.T) {
	l := New()
	l.Append(3, "ok", mut{N: 1})
	good := l.Bytes()
	for name, bad := range badEnvelopes {
		recs, rep := Replay(append(bytes.Clone(good), bad...))
		want := fmt.Sprintf("undecodable record at offset %d", len(good))
		if !rep.Truncated || len(recs) != 1 || rep.Bytes != len(good) || !strings.HasPrefix(rep.Reason, want) {
			t.Errorf("%s: %d records, %d bytes, truncated=%v, reason %q", name, len(recs), rep.Bytes, rep.Truncated, rep.Reason)
		}
	}
	// The helper's own well-formed envelope decodes, negative at and all.
	recs, rep := Replay(frame(body(1, "m", `{"n":1}`)))
	if rep.Truncated || len(recs) != 1 || recs[0].At != -5 || recs[0].Type != "m" || string(recs[0].Data) != `{"n":1}` {
		t.Fatalf("well-formed envelope: %+v, %+v", recs, rep)
	}
}

func TestReplayDetectsBitFlips(t *testing.T) {
	l := New()
	for i := 0; i < 3; i++ {
		l.Append(0, "a", mut{Service: "web", N: i})
	}
	full := l.Bytes()
	// Flip a bit inside the second frame's payload: replay must keep the
	// first record and stop at the corruption.
	recs0, _ := Replay(full)
	if len(recs0) != 3 {
		t.Fatalf("precondition: %d records", len(recs0))
	}
	// Find the start of frame 2: frame 1 is header + payload.
	frame1 := frameHeader + int(uint32(full[0])<<24|uint32(full[1])<<16|uint32(full[2])<<8|uint32(full[3]))
	corrupt := bytes.Clone(full)
	corrupt[frame1+frameHeader+4] ^= 0x10
	recs, rep := Replay(corrupt)
	if !rep.Truncated {
		t.Fatal("bit flip not detected")
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("replay after corruption = %d records, want exactly the first", len(recs))
	}
}

func TestEmptyAndGarbage(t *testing.T) {
	if recs, rep := Replay(nil); len(recs) != 0 || rep.Truncated {
		t.Fatalf("empty log: %d records truncated=%v", len(recs), rep.Truncated)
	}
	recs, rep := Replay([]byte("not a journal at all, definitely"))
	if len(recs) != 0 || !rep.Truncated {
		t.Fatalf("garbage log yielded %d records", len(recs))
	}
}

// FuzzJournalReplay feeds arbitrary bytes — seeded with valid logs,
// truncations, and corruptions — and asserts replay never panics, never
// yields a record that fails re-encode validation, and consumes at most
// the input length.
func FuzzJournalReplay(f *testing.F) {
	l := New()
	l.SetEpoch(2)
	for i := 0; i < 6; i++ {
		l.Append(int64(i), "m", mut{Service: "svc", N: i})
	}
	l.Snapshot(7, mut{Service: "snap", N: 99})
	l.Append(8, "m", mut{N: 100})
	valid := l.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	for _, bad := range badEnvelopes {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, rep := Replay(data)
		if rep.Bytes > len(data) {
			t.Fatalf("consumed %d of %d bytes", rep.Bytes, len(data))
		}
		if rep.Records != len(recs) {
			t.Fatalf("report records %d != %d", rep.Records, len(recs))
		}
		// Whatever decoded must round-trip: valid frames only.
		for _, r := range recs {
			if _, err := json.Marshal(r); err != nil {
				t.Fatalf("undecodable record survived replay: %v", err)
			}
		}
		if !rep.Truncated && rep.Bytes != len(data) {
			t.Fatalf("clean replay left %d trailing bytes", len(data)-rep.Bytes)
		}
	})
}

// chunk has the shape of the Master's most frequent record,
// chunk-announce.
type chunk struct {
	Image  string `json:"image"`
	Chunk  uint64 `json:"chunk,omitempty"`
	Daemon int    `json:"daemon"`
	Total  int    `json:"total"`
}

// chunkLog journals n chunk-announce-shaped records.
func chunkLog(n int) *Log {
	l := New()
	for i := 0; i < n; i++ {
		l.Append(int64(i), "chunk-announce", any(chunk{Image: "web", Chunk: uint64(i), Daemon: i % 8, Total: 512}))
	}
	return l
}

// TestJournalAllocs guards the single-encode frame: an append costs at
// most the payload's encoding, and a replayed record at most one
// allocation.  Allocation counts do not depend on the machine.
func TestJournalAllocs(t *testing.T) {
	l := chunkLog(1)
	var rec any = chunk{Image: "web", Chunk: 7, Daemon: 3, Total: 512}
	if a := testing.AllocsPerRun(1000, func() { l.Append(1, "chunk-announce", rec) }); a > 3 {
		t.Errorf("Append: %.1f allocs, want ≤ 3", a)
	}
	const n = 1000
	img := chunkLog(n).Bytes()
	a := testing.AllocsPerRun(20, func() {
		if recs, _ := Replay(img); len(recs) != n {
			t.Fatalf("replayed %d records, want %d", len(recs), n)
		}
	})
	if perRec := a / n; perRec > 1 {
		t.Errorf("Replay: %.2f allocs per record, want ≤ 1", perRec)
	}
}

func BenchmarkJournalAppend(b *testing.B) {
	l := New()
	var rec any = chunk{Image: "web", Chunk: 7, Daemon: 3, Total: 512}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%100_000 == 0 {
			l = New() // bound the tail's memory
		}
		l.Append(int64(i), "chunk-announce", rec)
	}
}

func BenchmarkJournalReplay(b *testing.B) {
	const n = 1000
	img := chunkLog(n).Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, _ := Replay(img); len(recs) != n {
			b.Fatalf("replayed %d records", len(recs))
		}
	}
}
