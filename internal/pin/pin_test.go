package pin

import (
	"path/filepath"
	"strings"
	"testing"
)

type record struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Ratio float64 `json:"ratio"`
}

type report struct {
	Seed    uint64   `json:"seed"`
	Seconds float64  `json:"virtual_seconds"`
	Records []record `json:"records"`
}

func name(r record) string { return r.Name }

func sample() report {
	return report{Seed: 1719, Seconds: 60, Records: []record{
		{"a", 875, 0.2857142857142857},
		{"b", 1200, 0.019607843137254943},
		{"c", 0, 0},
	}}
}

// roundTrip writes rep to a temp pin file and loads it back, as a
// -check run reads a committed pin.
func roundTrip(t *testing.T, rep report) report {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pin.json")
	if err := Write(path, rep); err != nil {
		t.Fatal(err)
	}
	var got report
	if err := Load(path, &got); err != nil {
		t.Fatal(err)
	}
	return got
}

func compare(pinned, fresh report) error {
	return Compare([]Param{
		{"seed", pinned.Seed, fresh.Seed},
		{"virtual_seconds", pinned.Seconds, fresh.Seconds},
	}, pinned.Records, fresh.Records, name)
}

func wantErr(t *testing.T, err error, parts ...string) {
	t.Helper()
	if err == nil {
		t.Fatalf("Compare passed, want an error naming %q", parts)
	}
	for _, p := range parts {
		if !strings.Contains(err.Error(), p) {
			t.Errorf("error %q does not mention %q", err, p)
		}
	}
}

func TestIdenticalPasses(t *testing.T) {
	if err := compare(roundTrip(t, sample()), sample()); err != nil {
		t.Fatal(err)
	}
}

func TestChangedFieldFails(t *testing.T) {
	fresh := sample()
	fresh.Records[0].Ratio = 0.2857142857142858 // last digit
	wantErr(t, compare(roundTrip(t, sample()), fresh),
		"changed a", "ratio 0.2857142857142857 -> 0.2857142857142858")
}

func TestMissingRecordFails(t *testing.T) {
	fresh := sample()
	fresh.Records = fresh.Records[:2]
	wantErr(t, compare(roundTrip(t, sample()), fresh), "missing c")
}

func TestUnexpectedRecordFails(t *testing.T) {
	fresh := sample()
	fresh.Records = append(fresh.Records, record{Name: "d"})
	wantErr(t, compare(roundTrip(t, sample()), fresh), "unexpected d")
}

func TestParamMismatchFailsFirst(t *testing.T) {
	fresh := sample()
	fresh.Seconds = 120
	fresh.Records = nil // every record missing, yet only the parameter is reported
	err := compare(roundTrip(t, sample()), fresh)
	wantErr(t, err, "virtual_seconds", "pinned 60, this run 120")
	if strings.Contains(err.Error(), "missing") {
		t.Errorf("records compared despite a parameter mismatch: %v", err)
	}
}
