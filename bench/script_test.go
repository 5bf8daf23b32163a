package main

import (
	"bytes"
	"testing"

	"overprov/internal/similarity"
	"overprov/internal/synth"
	"overprov/internal/trace"
	"overprov/internal/units"
)

func smallTrace(t *testing.T, seed uint64) *trace.Trace {
	t.Helper()
	cfg := synth.SmallConfig()
	cfg.Seed = seed
	raw, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return raw.Prepared(cfg.MaxNodes / 2)
}

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	build := func(seed uint64) []byte {
		s, err := buildScript(smallTrace(t, seed), 2, 8, 500)
		if err != nil {
			t.Fatal(err)
		}
		return s.bytes()
	}
	if !bytes.Equal(build(1), build(1)) {
		t.Error("the same seed gave two different scripts")
	}
	if bytes.Equal(build(1), build(2)) {
		t.Error("seeds 1 and 2 gave the same script")
	}
}

func TestNoSimilarityKeyOnTwoConnections(t *testing.T) {
	s, err := buildScript(smallTrace(t, 1), 2, 8, 500)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[similarity.Key]int{}
	for c, seq := range s.Conn {
		if len(seq) != 500*8 {
			t.Fatalf("connection %d has %d jobs, want %d", c, len(seq), 500*8)
		}
		for _, j := range seq {
			k := similarity.ByUserAppReqMem(&trace.Job{User: int(j.User), App: int(j.App), ReqMem: units.MemSize(j.ReqMemMB)})
			if prev, seen := owner[k]; seen && prev != c {
				t.Fatalf("group %v appears on connections %d and %d", k, prev, c)
			}
			owner[k] = c
		}
	}
}

func TestScriptCyclesWhenTheTraceRunsOut(t *testing.T) {
	tr := smallTrace(t, 1)
	s, err := buildScript(tr, 2, 1, tr.Len())
	if err != nil {
		t.Fatal(err)
	}
	own := 0 // trace jobs pinned to connection 0
	for i := range tr.Jobs {
		if connOf(similarity.ByUserAppReqMem(&tr.Jobs[i]), 2) == 0 {
			own++
		}
	}
	seq := s.Conn[0]
	if own == 0 || own >= len(seq) {
		t.Fatalf("connection 0 owns %d of %d trace jobs; the test needs it to wrap", own, tr.Len())
	}
	for i := 0; i+own < len(seq); i++ {
		if seq[i] != seq[i+own] {
			t.Fatalf("job %d and job %d differ: the script does not start over after %d jobs", i, i+own, own)
		}
	}
}
