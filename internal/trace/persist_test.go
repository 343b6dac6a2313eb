package trace

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	evs := buildPipelineTrace()
	var buf bytes.Buffer
	if err := Write(&buf, evs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("round trip mismatch: %d vs %d events", len(got), len(evs))
	}
}

func TestWriteReadEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d events", len(got))
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a trace")); err == nil {
		t.Error("garbage must be rejected")
	}
	// A valid gob stream with the wrong magic.
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the magic string bytes.
	idx := bytes.Index(data, []byte("stampede"))
	if idx < 0 {
		t.Fatal("magic not found in stream")
	}
	data[idx] = 'X'
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("wrong magic must be rejected")
	}
}

func TestReadTruncated(t *testing.T) {
	evs := buildPipelineTrace()
	var buf bytes.Buffer
	if err := Write(&buf, evs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated stream must be rejected")
	}
}

func TestSaveLoadFile(t *testing.T) {
	rec := NewRecorder()
	for _, ev := range buildPipelineTrace() {
		rec.Append(ev)
	}
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := SaveFile(path, rec); err != nil {
		t.Fatal(err)
	}
	evs, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != rec.Len() {
		t.Fatalf("loaded %d events, want %d", len(evs), rec.Len())
	}
	// The loaded trace must analyze identically.
	a1, err := AnalyzeEvents(evs, AnalyzeOptions{To: sec(5)})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Analyze(rec, AnalyzeOptions{To: sec(5)})
	if err != nil {
		t.Fatal(err)
	}
	if a1.All.IntegralByteSec != a2.All.IntegralByteSec || a1.Outputs != a2.Outputs {
		t.Fatal("analysis of loaded trace diverges")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.trace")); err == nil {
		t.Error("missing file must error")
	}
}

// TestReadHugeDeclaredCount feeds a header that declares 2^36 events and
// holds none: the reader must report the short stream, not size its list
// by the declaration and die out of memory.
func TestReadHugeDeclaredCount(t *testing.T) {
	var buf bytes.Buffer
	h := fileHeader{Magic: magic, Version: traceFileVersion, Events: 1 << 36}
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("a header declaring 2^36 events over an empty stream was accepted")
	}
}
