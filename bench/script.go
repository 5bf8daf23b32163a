package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"overprov/internal/similarity"
	"overprov/internal/trace"
)

// scriptJob is one submission of the serving script: the request the
// daemon sees plus the actual usage that decides its outcome.
type scriptJob struct {
	User, App, Nodes int32
	ReqMemMB         float64
	ReqTimeS         float64
	UsedMemMB        float64
}

// script is the fixed request sequence a serve workload plays. Conn[c] is
// connection c's jobs in play order; a round is the next Batch of them,
// submitted in one request and then completed in one request.
type script struct {
	Batch int
	Conn  [][]scriptJob
}

func (s *script) rounds(c int) int { return len(s.Conn[c]) / s.Batch }

func (s *script) jobs() int {
	n := 0
	for _, c := range s.Conn {
		n += len(c)
	}
	return n
}

// connOf pins a similarity group to a connection. All of a group's jobs
// then reach the daemon in one fixed order whatever the timing of the other
// connection, which is what makes the estimator's final state predictable.
// The hash is deliberately not ring.HashKey, so the pinning is independent
// of the router's placement.
func connOf(k similarity.Key, nconns int) int {
	h := uint64(k.User)*0x9e3779b97f4a7c15 ^ uint64(k.App)*0xc2b2ae3d27d4eb4f ^ uint64(k.ReqMemKB)*0x165667b19e3779f9
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int(h % uint64(nconns))
}

// buildScript turns a trace into a script of roundsPerConn rounds on each
// of nconns connections. A connection that runs out of trace jobs starts
// over from its first one.
func buildScript(tr *trace.Trace, nconns, batch, roundsPerConn int) (*script, error) {
	pinned := make([][]scriptJob, nconns)
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		c := connOf(similarity.ByUserAppReqMem(j), nconns)
		pinned[c] = append(pinned[c], scriptJob{
			User: int32(j.User), App: int32(j.App), Nodes: int32(j.Nodes),
			ReqMemMB: j.ReqMem.MBf(), ReqTimeS: j.ReqTime.Sec(), UsedMemMB: j.UsedMem.MBf(),
		})
	}
	s := &script{Batch: batch, Conn: make([][]scriptJob, nconns)}
	want := roundsPerConn * batch
	for c := range pinned {
		if len(pinned[c]) == 0 {
			return nil, fmt.Errorf("script: no trace job hashes to connection %d", c)
		}
		seq := make([]scriptJob, want)
		for i := range seq {
			seq[i] = pinned[c][i%len(pinned[c])]
		}
		s.Conn[c] = seq
	}
	return s, nil
}

// bytes serialises the script; two scripts are the same inputs exactly
// when their bytes are equal.
func (s *script) bytes() []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(s.Batch))
	for _, c := range s.Conn {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(c)))
		for _, j := range c {
			out = binary.LittleEndian.AppendUint32(out, uint32(j.User))
			out = binary.LittleEndian.AppendUint32(out, uint32(j.App))
			out = binary.LittleEndian.AppendUint32(out, uint32(j.Nodes))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(j.ReqMemMB))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(j.ReqTimeS))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(j.UsedMemMB))
		}
	}
	return out
}
