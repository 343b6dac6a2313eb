package trace

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
)

// traceFileVersion guards the on-disk format.
const traceFileVersion = 2

// fileHeader opens a persisted trace. Names is an optional node-id →
// human-name table, so offline tools can label threads and channels.
type fileHeader struct {
	Magic   string
	Version int
	Events  int
	Names   map[graph.NodeID]string
}

const magic = "stampede-aru-trace"

// maxPrealloc caps the events ReadNamed allocates ahead of decoding them.
const maxPrealloc = 1 << 16

// Write serializes events to w without a name table.
func Write(w io.Writer, events []Event) error {
	return WriteNamed(w, events, nil)
}

// WriteNamed serializes events plus a node-name table to w (gob stream:
// header, then events), so a run's measurements can be analyzed offline
// by cmd/traceview or archived alongside experiment results.
func WriteNamed(w io.Writer, events []Event, names map[graph.NodeID]string) error {
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	h := fileHeader{Magic: magic, Version: traceFileVersion, Events: len(events), Names: names}
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("trace: write event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read deserializes a persisted trace, dropping the name table.
func Read(r io.Reader) ([]Event, error) {
	events, _, err := ReadNamed(r)
	return events, err
}

// ReadNamed deserializes a persisted trace including its name table
// (possibly nil).
func ReadNamed(r io.Reader) ([]Event, map[graph.NodeID]string, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var h fileHeader
	if err := dec.Decode(&h); err != nil {
		return nil, nil, fmt.Errorf("trace: read header: %w", err)
	}
	if h.Magic != magic {
		return nil, nil, fmt.Errorf("trace: not a trace file (magic %q)", h.Magic)
	}
	if h.Version != traceFileVersion {
		return nil, nil, fmt.Errorf("trace: unsupported version %d", h.Version)
	}
	if h.Events < 0 {
		return nil, nil, fmt.Errorf("trace: negative event count %d", h.Events)
	}
	// The declared count sizes the list only up to a bound: a header may
	// declare more events than the stream holds.
	events := make([]Event, 0, min(h.Events, maxPrealloc))
	for i := 0; i < h.Events; i++ {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return nil, nil, fmt.Errorf("trace: read event %d/%d: %w", i, h.Events, err)
		}
		events = append(events, ev)
	}
	return events, h.Names, nil
}

// GraphNames extracts the node-name table from a task graph.
func GraphNames(g *graph.Graph) map[graph.NodeID]string {
	if g == nil {
		return nil
	}
	names := make(map[graph.NodeID]string, g.NumNodes())
	g.Nodes(func(n *graph.Node) { names[n.ID] = n.Name })
	return names
}

// SaveFile writes a recorder's events to path without names.
func SaveFile(path string, r *Recorder) error {
	return SaveFileNamed(path, r.Events(), nil)
}

// SaveFileNamed writes events plus a name table to path.
func SaveFileNamed(path string, events []Event, names map[graph.NodeID]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = WriteNamed(f, events, names)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadFile reads a persisted trace from path, dropping names.
func LoadFile(path string) ([]Event, error) {
	events, _, err := LoadFileNamed(path)
	return events, err
}

// LoadFileNamed reads a persisted trace and its name table from path.
func LoadFileNamed(path string) ([]Event, map[graph.NodeID]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadNamed(f)
}
