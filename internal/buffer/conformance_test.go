package buffer_test

import (
	"slices"
	"testing"

	"repro/internal/buffer"
	_ "repro/internal/remote" // register "remote"
)

// TestConformanceRegistry checks every registered backend against the
// contract the runtime relies on: Caps.GetAt holds exactly when the
// backend's instances implement buffer.AtGetter (Ctx.GetAt type-asserts
// on the declaration), and a fresh in-process instance reads zero books.
func TestConformanceRegistry(t *testing.T) {
	names := buffer.Names()
	for _, want := range []string{"channel", "queue", "remote", "ring"} {
		if !slices.Contains(names, want) {
			t.Fatalf("backend %q not registered (registered: %v)", want, names)
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			be, _ := buffer.Lookup(name)
			// The ring needs a capacity, the wire backend an address; the
			// endpoint dials only on attach.
			b, err := be.New(buffer.Config{Name: "conf-" + name, Capacity: 4, Addr: "127.0.0.1:1"})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if _, ok := b.(buffer.AtGetter); ok != be.Caps.GetAt {
				t.Errorf("implements AtGetter = %v, Caps.GetAt = %v", ok, be.Caps.GetAt)
			}
			if be.Caps.Remote {
				return // its occupancy lives on a server
			}
			if st := b.Stats(); st != (buffer.Stats{}) {
				t.Errorf("fresh instance Stats = %+v, want zero", st)
			}
		})
	}
}
