package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
	"overprov/internal/ring"
	"overprov/internal/similarity"
	"overprov/internal/trace"
	"overprov/internal/units"
	"overprov/internal/wire"
)

// The measurements here time one layer alone on the script's jobs, outside
// any replay: the codec, the ring, the estimator tier and the shared cluster.

// ringMetrics reports how the script's jobs spread over the two backends.
func ringMetrics(run *serveRun) error {
	rg, err := ring.New([]string{"n0", "n1"}, 0)
	if err != nil {
		return err
	}
	sc := run.in.sc
	counts := make([]int, rg.Len())
	batches, involved, jobs := 0, 0, 0
	begin := time.Now()
	for _, seq := range sc.Conn {
		for r := 0; r+sc.Batch <= len(seq); r += sc.Batch {
			var seen [2]bool
			for _, j := range seq[r : r+sc.Batch] {
				b := place(rg, j)
				counts[b]++
				if !seen[b] {
					seen[b] = true
					involved++
				}
			}
			batches++
			jobs += sc.Batch
		}
	}
	run.res.set("ring.hash_lookup_ns", float64(time.Since(begin))/float64(jobs), jobs)
	largest := counts[0]
	if counts[1] > largest {
		largest = counts[1]
	}
	run.res.set("ring.imbalance", float64(largest)/(float64(jobs)/float64(len(counts))), jobs)
	run.res.set("ring.backends_per_batch", float64(involved)/float64(batches), batches)
	return nil
}

// wireMetrics times the codec alone on the script's jobs at one batch size:
// per job, one submit record, one completion record and their two results.
func wireMetrics(run *serveRun, batch int, suffix string) error {
	seq := run.in.sc.Conn[0]
	if len(seq) > 65536 {
		seq = seq[:65536]
	}
	var (
		enc     wire.Encoder
		frames  [][]byte
		jobs    []wire.Job
		comps   []wire.Completion
		results []wire.Result
		nbytes  int
	)
	keep := func(f []byte) {
		frames = append(frames, append([]byte(nil), f...))
		nbytes += len(f)
	}
	var encNS time.Duration
	for r := 0; r+batch <= len(seq); r += batch {
		jobs, comps, results = jobs[:0], comps[:0], results[:0]
		for i, j := range seq[r : r+batch] {
			jobs = append(jobs, wireJob(j))
			comps = append(comps, wire.Completion{ID: int64(r + i + 1), Success: true})
			results = append(results, wire.Result{ID: int64(r + i + 1), State: wire.StateRunning})
		}
		t0 := time.Now()
		f1 := enc.SubmitBatch(wire.VersionMax, jobs)
		encNS += time.Since(t0)
		keep(f1)
		t0 = time.Now()
		f2 := enc.Results(wire.VersionMax, wire.TypeSubmitResult, results)
		encNS += time.Since(t0)
		keep(f2)
		t0 = time.Now()
		f3 := enc.CompleteBatch(wire.VersionMax, comps)
		encNS += time.Since(t0)
		keep(f3)
		t0 = time.Now()
		f4 := enc.Results(wire.VersionMax, wire.TypeCompleteResult, results)
		encNS += time.Since(t0)
		keep(f4)
	}
	n := len(seq) / batch * batch
	var stream bytes.Buffer
	for _, f := range frames {
		stream.Write(f)
	}
	fr := wire.NewReader(&stream)
	t0 := time.Now()
	for range frames {
		f, err := fr.ReadFrame()
		if err != nil {
			return err
		}
		switch f.Type {
		case wire.TypeSubmitBatch:
			jobs, err = wire.DecodeSubmitBatch(f.Payload, jobs[:0])
		case wire.TypeCompleteBatch:
			comps, err = wire.DecodeCompleteBatch(f.Payload, comps[:0])
		default:
			results, err = wire.DecodeResults(f.Payload, results[:0])
		}
		if err != nil {
			return err
		}
	}
	decNS := time.Since(t0)
	run.res.set("wire.encode_ns_per_job"+suffix, float64(encNS)/float64(n), n)
	run.res.set("wire.decode_ns_per_job"+suffix, float64(decNS)/float64(n), n)
	run.res.set("wire.bytes_per_job"+suffix, float64(nbytes)/float64(n), n)
	return nil
}

// estimatorMetrics times the estimator tier and the shared cluster alone on
// the script's jobs: the two concurrency wrappers at one and two
// goroutines, state save and load, and allocate/release.
func estimatorMetrics(run *serveRun) error {
	seq := run.in.sc.Conn[0]
	if len(seq) > 65536 {
		seq = seq[:65536]
	}
	tjobs := make([]trace.Job, len(seq))
	for i, j := range seq {
		tjobs[i] = trace.Job{ID: i + 1, User: int(j.User), App: int(j.App), Nodes: int(j.Nodes),
			ReqMem: units.MemSize(j.ReqMemMB), ReqTime: units.Seconds(j.ReqTimeS)}
	}
	var sink similarity.Key
	begin := time.Now()
	for i := range tjobs {
		sink = similarity.ByUserAppReqMem(&tjobs[i])
	}
	_ = sink
	run.res.set("similarity.key_ns", float64(time.Since(begin))/float64(len(tjobs)), len(tjobs))

	// One op is an Estimate or the Feedback that follows it.
	hammer := func(est estimate.Estimator, g int) float64 {
		var wg sync.WaitGroup
		begin := time.Now()
		for k := 0; k < g; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for i := k; i < len(tjobs); i += g {
					m := est.Estimate(&tjobs[i])
					est.Feedback(estimate.Outcome{Job: &tjobs[i], Allocated: m, Success: true})
				}
			}(k)
		}
		wg.Wait()
		return float64(time.Since(begin)) / float64(2*len(tjobs))
	}
	for _, g := range []int{1, 2} {
		cl, sharded, err := newBackendParts()
		if err != nil {
			return err
		}
		plain, err := estimate.NewSuccessiveApprox(estimate.SuccessiveApproxConfig{Alpha: 2, Beta: 0, Round: cl})
		if err != nil {
			return err
		}
		suffix := fmt.Sprintf(".g%d", g)
		run.res.set("estimate.synchronized_op_ns"+suffix, hammer(estimate.NewSynchronized(plain), g), 2*len(tjobs))
		run.res.set("estimate.sharded_op_ns"+suffix, hammer(sharded, g), 2*len(tjobs))
	}

	// State size, save and load, on the state the whole script teaches.
	_, est, err := newBackendParts()
	if err != nil {
		return err
	}
	if err := est.LoadState(bytes.NewReader(run.in.or.Snapshot)); err != nil {
		return err
	}
	run.res.set("estimate.groups", float64(est.NumGroups()), 1)
	run.res.set("estimate.state_bytes", float64(len(run.in.or.Snapshot)), 1)
	var buf bytes.Buffer
	begin = time.Now()
	if err := est.SaveState(&buf); err != nil {
		return err
	}
	run.res.set("estimate.save_state_ms", float64(time.Since(begin))/1e6, 1)
	_, fresh, err := newBackendParts()
	if err != nil {
		return err
	}
	begin = time.Now()
	if err := fresh.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		return err
	}
	run.res.set("estimate.load_state_ms", float64(time.Since(begin))/1e6, 1)

	cl, _, err := newBackendParts()
	if err != nil {
		return err
	}
	shared := cluster.NewShared(cl)
	begin = time.Now()
	for i := range tjobs {
		if a, ok := shared.Allocate(tjobs[i].Nodes, tjobs[i].ReqMem); ok {
			if err := shared.Release(a); err != nil {
				return err
			}
		}
	}
	run.res.set("cluster.shared_alloc_release_ns", float64(time.Since(begin))/float64(len(tjobs)), len(tjobs))
	return nil
}
