package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchFile mirrors BENCHMARK.json, the file the driver reads. Its keys
// are fixed by the benchmark contract.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchFile(root string) (*benchFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return &b, dec.Decode(&b)
}

// BENCHMARK.json is what the driver reads; spec.go is what the program
// prints. They must say the same thing.
func TestBenchmarkFileMatchesTheTables(t *testing.T) {
	root, _, err := dirs()
	if err != nil {
		t.Fatal(err)
	}
	b, err := readBenchFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, the workloads are sized for %d", b.RunSeconds, nominalSeconds)
	}
	if got := strings.Join(b.Command, " "); got != "go run -C bench ." {
		t.Errorf("command %q, want go run -C bench .", got)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d is %q (%q), the program has %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, the program has %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end-to-end metric %d is %+v, the program has %+v", i, got, d)
		}
		if got.Bound != bound {
			t.Errorf("%s: bound %g, every timing metric's is %g (repeat.go)", got.Name, got.Bound, bound)
		}
		setup = setup || (got.Name == "setup_s" && got.Unit == "s" && got.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics listed, the program has %d (limit 128)", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v, the program has %+v", i, got, d)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if seen[d.Name] {
			t.Errorf("%s is listed both end to end and per layer", d.Name)
		}
	}
}

func TestScalingKeepsTheFloors(t *testing.T) {
	for _, w := range workloads {
		s := w.scaled(1)
		if w.Topo == topoNone {
			if s.Passes < 3 {
				t.Errorf("%s: %d passes at 1 s, a median pass needs 3", w.Name, s.Passes)
			}
			continue
		}
		if s.ClosedRounds < 1000 || s.OpenRounds < 1000 || s.ClosedRounds%conns != 0 || s.OpenRounds%conns != 0 {
			t.Errorf("%s at 1 s: %d closed and %d open rounds", w.Name, s.ClosedRounds, s.OpenRounds)
		}
		if d := w.scaled(2 * nominalSeconds); d.ClosedRounds != 2*w.ClosedRounds {
			t.Errorf("%s at twice the seconds: %d closed rounds, want %d", w.Name, d.ClosedRounds, 2*w.ClosedRounds)
		}
	}
}
