// Package pin holds the exact comparison behind every pinned report in
// the repository (BENCH_aru.json, BENCH_scenarios.json,
// BENCH_elastic.json). Each report is a JSON file of run parameters
// plus a list of keyed records, and every record is measured on the
// virtual clock, so a fresh run either reproduces its pin exactly or
// the behaviour changed. There is no tolerance and no re-measure.
//
// Compare checks the run parameters first: a run made under a
// different seed or duration is not comparable at all, so it fails
// naming the parameter before any record is looked at. It then diffs
// the records by their JSON encoding, which for float64 is the
// shortest round-tripping form and therefore exact, and reports every
// changed, missing and unexpected key. Metadata such as the Go version
// and the CPU count is not a parameter and is never compared.
package pin

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Param is one run parameter: its name in the pin file, the value the
// pin was made under, and the value of this run.
type Param struct {
	Name            string
	Pinned, Running any
}

// Load decodes the pin file at path into v.
func Load(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}

// Write stores v at path as indented JSON with a trailing newline, the
// layout every committed pin uses.
func Write(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Compare checks fresh records against pinned ones. The first run
// parameter that differs fails the comparison on its own. Otherwise
// records are matched by key and compared field by field; the error
// lists every changed, missing (pinned but not measured) and
// unexpected (measured but not pinned) record.
func Compare[T any](params []Param, pinned, fresh []T, key func(T) string) error {
	for _, p := range params {
		if want, got := encode(p.Pinned), encode(p.Running); want != got {
			return fmt.Errorf("run parameter %s: pinned %s, this run %s", p.Name, want, got)
		}
	}
	want := make(map[string]T, len(pinned))
	for _, r := range pinned {
		want[key(r)] = r
	}
	var diffs []string
	for _, r := range fresh {
		k := key(r)
		w, ok := want[k]
		if !ok {
			diffs = append(diffs, "unexpected "+k)
			continue
		}
		delete(want, k)
		if d := fieldDiff(w, r); d != "" {
			diffs = append(diffs, "changed "+k+": "+d)
		}
	}
	for _, r := range pinned {
		if _, ok := want[key(r)]; ok {
			diffs = append(diffs, "missing "+key(r))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%d of %d pinned records differ:\n  %s", len(diffs), len(pinned), strings.Join(diffs, "\n  "))
	}
	return nil
}

// fieldDiff names each JSON field whose encoding differs between the
// pinned and the fresh record, as "name pinned -> fresh"; it is empty
// when the records are identical.
func fieldDiff(pinned, fresh any) string {
	a, b := encode(pinned), encode(fresh)
	if a == b {
		return ""
	}
	var pf, ff map[string]json.RawMessage
	if json.Unmarshal([]byte(a), &pf) != nil || json.Unmarshal([]byte(b), &ff) != nil {
		return a + " -> " + b
	}
	names := make(map[string]bool, len(pf)+len(ff))
	for n := range pf {
		names[n] = true
	}
	for n := range ff {
		names[n] = true
	}
	var out []string
	for n := range names {
		if p, f := string(pf[n]), string(ff[n]); p != f {
			out = append(out, fmt.Sprintf("%s %s -> %s", n, orAbsent(p), orAbsent(f)))
		}
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

func encode(v any) string {
	buf, err := json.Marshal(v)
	if err != nil {
		return "<" + err.Error() + ">"
	}
	return string(buf)
}

func orAbsent(raw string) string {
	if raw == "" {
		return "(absent)"
	}
	return raw
}
