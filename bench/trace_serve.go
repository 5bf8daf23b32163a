package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
	"overprov/internal/ring"
	"overprov/internal/router"
	"overprov/internal/server"
	"overprov/internal/similarity"
	"overprov/internal/trace"
	"overprov/internal/units"
	"overprov/internal/wal"
	"overprov/internal/wire"
)

// The traced run replays a prefix of the untraced run's script in-process,
// one request at a time, through each serving layer's public functions. The
// client opens a span around every request; estimator and journal are
// decorated (server.Config.Estimator, server.Config.Journal) so their calls
// appear as child spans. What the real run's round time holds beyond these
// spans — sockets, goroutine hand-offs, two requests contending — is
// reported as bench.unattributed_us_per_batch.

// tracedEstimator records a child span per call.
type tracedEstimator struct {
	inner estimate.Estimator
	tr    *tracer
}

func (e *tracedEstimator) Name() string { return e.inner.Name() }

func (e *tracedEstimator) Estimate(j *trace.Job) units.MemSize {
	start := e.tr.now()
	m := e.inner.Estimate(j)
	e.tr.child("estimate.estimate", start)
	return m
}

func (e *tracedEstimator) Feedback(o estimate.Outcome) {
	start := e.tr.now()
	e.inner.Feedback(o)
	e.tr.child("estimate.feedback", start)
}

// tracedJournal records a child span per append; it keeps the batch
// surface so the server journals a batch under one commit as in production.
type tracedJournal struct {
	inner *wal.Log
	tr    *tracer
}

func (j *tracedJournal) RecordOutcome(o estimate.Outcome) error {
	start := j.tr.now()
	err := j.inner.RecordOutcome(o)
	j.tr.child("wal.append", start)
	return err
}

func (j *tracedJournal) RecordOutcomes(os []estimate.Outcome) error {
	start := j.tr.now()
	err := j.inner.RecordOutcomes(os)
	j.tr.child("wal.append", start)
	return err
}

// pipeListener hands the server one end of an in-memory connection per
// dial, so a replay exercises the real frame loop without kernel sockets.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (l *pipeListener) dial() (net.Conn, error) {
	client, srv := net.Pipe()
	select {
	case l.conns <- srv:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// node is one in-process backend: the parts cmd/schedd assembles.
type node struct {
	name string
	cl   *cluster.Cluster
	est  *estimate.ShardedSynchronized
	log  *wal.Log // nil when not durable
	srv  *server.Server
	ws   *server.WireServer
	pipe *pipeListener
	tcp  net.Listener
}

// nodeOpts selects a node's shape.
type nodeOpts struct {
	walDir      string // "" for a non-durable node
	groupCommit bool
	tr          *tracer // nil for an undecorated node
	tcp         bool    // listen on loopback TCP instead of a pipe
}

func newNode(name string, o nodeOpts) (*node, error) {
	cl, est, err := newBackendParts()
	if err != nil {
		return nil, err
	}
	n := &node{name: name, cl: cl, est: est}
	cfg := server.Config{Cluster: cl, Estimator: est}
	if o.tr != nil {
		cfg.Estimator = &tracedEstimator{inner: est, tr: o.tr}
	}
	if o.walDir != "" {
		if n.log, err = wal.Open(o.walDir, wal.Options{GroupCommit: o.groupCommit}); err != nil {
			return nil, err
		}
		if _, err := n.log.Recover(nil, nil); err != nil {
			return nil, err
		}
		cfg.Journal = n.log
		if o.tr != nil {
			cfg.Journal = &tracedJournal{inner: n.log, tr: o.tr}
		}
	}
	if n.srv, err = server.New(cfg); err != nil {
		return nil, err
	}
	n.ws = server.NewWireServer(n.srv)
	var ln net.Listener
	if o.tcp {
		if n.tcp, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		ln = n.tcp
	} else {
		n.pipe = newPipeListener()
		ln = n.pipe
	}
	go func() { _ = n.ws.Serve(ln) }()
	return n, nil
}

func (n *node) dial() (*swpConn, error) {
	if n.tcp != nil {
		return dialSwp(n.tcp.Addr().String())
	}
	c, err := n.pipe.dial()
	if err != nil {
		return nil, err
	}
	return newSwpConn(c)
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = n.ws.Shutdown(ctx)
	if n.pipe != nil {
		_ = n.pipe.Close()
	}
	if n.log != nil {
		_ = n.log.Close()
	}
}

// rotate snapshots through the server's quiesce gate, as cmd/schedd does.
func (n *node) rotate() error {
	return n.srv.Quiesce(func() error { return n.log.Rotate(n.est.SaveState) })
}

const idTagBits = 50 // as the router tags ids: backend index above the local id

// splitTransport is a client that does the router's job itself: it splits
// a batch over the backends by ring placement, talks to each directly, and
// merges the replies. Sequential, it takes the backends one after the other
// (and wraps each exchange in a span when it has a tracer), so a request's
// time is the sum of its layers; otherwise it writes to all of them before
// reading any reply, as the router's parallel fan-out does.
type splitTransport struct {
	conns      []*swpConn
	rg         *ring.Ring
	tr         *tracer
	sequential bool

	part  [][]int // per backend: positions of the batch routed there
	jobs  [][]wire.Job
	comps [][]wire.Completion
}

func newSplitTransport(nodes []*node, tr *tracer, sequential bool) (*splitTransport, error) {
	names := make([]string, len(nodes))
	st := &splitTransport{tr: tr, sequential: sequential}
	for i, n := range nodes {
		names[i] = n.name
		c, err := n.dial()
		if err != nil {
			st.close()
			return nil, err
		}
		st.conns = append(st.conns, c)
	}
	var err error
	if st.rg, err = ring.New(names, 0); err != nil {
		return nil, err
	}
	st.part = make([][]int, len(nodes))
	st.jobs = make([][]wire.Job, len(nodes))
	st.comps = make([][]wire.Completion, len(nodes))
	return st, nil
}

// place is the router's placement rule (router.routing.place).
func place(rg *ring.Ring, j scriptJob) int {
	k := similarity.ByUserAppReqMem(&trace.Job{User: int(j.User), App: int(j.App), ReqMem: units.MemSize(j.ReqMemMB)})
	return rg.Lookup(ring.HashKey(int64(k.User), int64(k.App), k.ReqMemKB))
}

// fanout sends backend b's frame for every involved backend and gathers
// the replies into dst at the positions recorded in st.part.
func (st *splitTransport) fanout(spanName string, want wire.FrameType, frame func(b int) []byte, dst []result, tag bool) error {
	recv := func(b int) error {
		c := st.conns[b]
		f, err := c.fr.ReadFrame()
		if err != nil {
			return err
		}
		if f.Type != want {
			return fmt.Errorf("backend %d: reply type %d (%s)", b, f.Type, wire.DecodeError(f.Payload))
		}
		if c.res, err = wire.DecodeResults(f.Payload, c.res[:0]); err != nil {
			return err
		}
		if len(c.res) != len(st.part[b]) {
			return fmt.Errorf("backend %d: %d results for %d items", b, len(c.res), len(st.part[b]))
		}
		for k, pos := range st.part[b] {
			r := c.res[k]
			id := r.ID
			if tag {
				id |= int64(b) << idTagBits
			}
			dst[pos] = result{ID: id, State: r.State, Err: r.Err}
		}
		return nil
	}
	send := func(b int) error {
		c := st.conns[b]
		if _, err := c.bw.Write(frame(b)); err != nil {
			return err
		}
		return c.bw.Flush()
	}
	if st.sequential {
		for b := range st.conns {
			if len(st.part[b]) == 0 {
				continue
			}
			var id int32
			if st.tr != nil {
				id = st.tr.begin(spanName, -1)
				st.tr.cur.Store(id)
			}
			err := send(b)
			if err == nil {
				err = recv(b)
			}
			if st.tr != nil {
				st.tr.cur.Store(-1)
				st.tr.end(id)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	for b := range st.conns {
		if len(st.part[b]) > 0 {
			if err := send(b); err != nil {
				return err
			}
		}
	}
	for b := range st.conns {
		if len(st.part[b]) > 0 {
			if err := recv(b); err != nil {
				return err
			}
		}
	}
	return nil
}

func (st *splitTransport) submit(jobs []scriptJob, dst []result) ([]result, error) {
	for b := range st.part {
		st.part[b], st.jobs[b] = st.part[b][:0], st.jobs[b][:0]
	}
	base := len(dst)
	for i, j := range jobs {
		b := place(st.rg, j)
		st.part[b] = append(st.part[b], i)
		st.jobs[b] = append(st.jobs[b], wireJob(j))
		dst = append(dst, result{})
	}
	err := st.fanout("server.wire_submit", wire.TypeSubmitResult, func(b int) []byte {
		c := st.conns[b]
		return c.enc.SubmitBatch(c.version, st.jobs[b])
	}, dst[base:], true)
	return dst, err
}

func (st *splitTransport) complete(ids []int64, success []bool, dst []result) ([]result, error) {
	for b := range st.part {
		st.part[b], st.comps[b] = st.part[b][:0], st.comps[b][:0]
	}
	base := len(dst)
	for i, id := range ids {
		b := int(id >> idTagBits)
		st.part[b] = append(st.part[b], i)
		st.comps[b] = append(st.comps[b], wire.Completion{ID: id & (1<<idTagBits - 1), Success: success[i]})
		dst = append(dst, result{})
	}
	err := st.fanout("server.wire_complete", wire.TypeCompleteResult, func(b int) []byte {
		c := st.conns[b]
		return c.enc.CompleteBatch(c.version, st.comps[b])
	}, dst[base:], false)
	// Completion results echo the local id; restore the tagged one.
	for i, id := range ids {
		dst[base+i].ID = id
	}
	return dst, err
}

func (st *splitTransport) close() {
	for _, c := range st.conns {
		c.close()
	}
}

// handlerTransport drives the JSON single-job endpoints in-process.
type handlerTransport struct {
	h  http.Handler
	tr *tracer
}

func (ht *handlerTransport) one(spanName, path string, in interface{}, dst []result) ([]result, error) {
	var id int32 = -1
	if ht.tr != nil {
		id = ht.tr.begin(spanName, -1)
		ht.tr.cur.Store(id)
	}
	var v server.JobView
	err := call(ht.h, "POST", path, in, &v)
	if ht.tr != nil {
		ht.tr.cur.Store(-1)
		ht.tr.end(id)
	}
	if err != nil {
		return dst, err
	}
	return append(dst, result{ID: v.ID, State: wire.StateByte(string(v.State))}), nil
}

func (ht *handlerTransport) submit(jobs []scriptJob, dst []result) ([]result, error) {
	j := jobs[0]
	return ht.one("server.http_submit", "/api/v1/jobs", server.SubmitRequest{
		User: int(j.User), App: int(j.App), Nodes: int(j.Nodes), ReqMemMB: j.ReqMemMB, ReqTimeS: j.ReqTimeS,
	}, dst)
}

func (ht *handlerTransport) complete(ids []int64, success []bool, dst []result) ([]result, error) {
	return ht.one("server.http_complete", "/api/v1/jobs/"+strconv.FormatInt(ids[0], 10)+"/complete",
		server.CompleteRequest{Success: success[0]}, dst)
}

func (ht *handlerTransport) close() {}

// replay plays the first rounds rounds of every connection's script, one
// request at a time, through t, and returns the mean time a round took in
// microseconds. each runs after every completed round and is not timed.
// Jobs still running after the last round are left so: reporting them now,
// and not with the next round as the oracle did, would change their outcomes.
func replay(in *serveInputs, rounds int, t transport, tr *tracer, each func(round int) error) (total genStats, roundUS float64, err error) {
	gens := make([]*connGen, len(in.sc.Conn))
	for c := range gens {
		gens[c] = newConnGen(t, realClock{}, in.sc, c, in.or.Fails[c])
	}
	n := 0
	var inRounds time.Duration
	for r := 0; r < rounds; r++ {
		for _, g := range gens {
			if tr != nil {
				tr.round.Store(int32(n))
			}
			begin := time.Now()
			if err := g.playRound(r, time.Time{}); err != nil {
				return total, 0, err
			}
			inRounds += time.Since(begin)
			n++
			if each != nil {
				if err := each(n); err != nil {
					return total, 0, err
				}
			}
		}
	}
	for _, g := range gens {
		total.add(&g.st)
	}
	if total.Mismatches > 0 || total.FailedRequests > 0 {
		return total, 0, fmt.Errorf("traced replay diverged from the oracle: %d mismatches, %d failed requests", total.Mismatches, total.FailedRequests)
	}
	return total, float64(inRounds) / float64(time.Microsecond) / float64(n), nil
}

// traceServe runs the traced replays for a serve workload and adds the
// serving layers' ledger to run.res.
func traceServe(w workload, run *serveRun, outDir string) error {
	dir, err := os.MkdirTemp(outDir, "traced-")
	if err != nil {
		return err
	}
	cleaner.addDir(dir)
	defer os.RemoveAll(dir)
	rounds := w.TracedJobs / (conns * w.Batch)
	if max := run.in.sc.rounds(0); rounds > max {
		rounds = max
	}
	nRounds := float64(rounds * conns)
	tr := newTracer()
	var tracedUS, plainUS float64
	switch w.Topo {
	case topoCluster:
		if tracedUS, plainUS, err = traceCluster(run, dir, rounds, tr); err != nil {
			return err
		}
		if err := ringMetrics(run); err != nil {
			return err
		}
		if err := wireMetrics(run, 64, ".b64"); err != nil {
			return err
		}
	case topoDirect:
		for _, decorated := range []bool{true, false} {
			var t *tracer
			if decorated {
				t = tr
			}
			n, err := newNode("n0", nodeOpts{tr: t})
			if err != nil {
				return err
			}
			var us float64
			st, err := newSplitTransport([]*node{n}, t, true)
			if err == nil {
				_, us, err = replay(run.in, rounds, st, t, nil)
				st.close()
			}
			n.close()
			if err != nil {
				return err
			}
			if decorated {
				tracedUS = us
			} else {
				plainUS = us
			}
		}
		if err := wireMetrics(run, 1, ".b1"); err != nil {
			return err
		}
	case topoHTTP:
		// Decorated and plain replays under group commit, then one more
		// under the per-record append path, the WAL's second mode.
		for i, mode := range []struct{ group, decorated bool }{{true, true}, {true, false}, {false, true}} {
			var t *tracer
			if mode.decorated {
				t = tr
				if !mode.group {
					t = newTracer()
				}
			}
			n, err := newNode("n0", nodeOpts{walDir: filepath.Join(dir, fmt.Sprintf("http-%d", i)), groupCommit: mode.group, tr: t})
			if err != nil {
				return err
			}
			_, us, err := replay(run.in, rounds, &handlerTransport{h: n.srv.Handler(), tr: t}, t, nil)
			n.close()
			if err != nil {
				return err
			}
			switch {
			case mode.group && mode.decorated:
				tracedUS = us
			case mode.group:
				plainUS = us
			default:
				a := t.totals()["wal.append"]
				run.res.set("wal.append_us.b1.record_mode", float64(a.Total)/1e3/float64(a.Count), a.Count)
			}
		}
	}

	tot := tr.totals()
	mean := func(metric, name string, unitNS float64) {
		if lt := tot[name]; lt.Count > 0 {
			run.res.set(metric, float64(lt.Total)/unitNS/float64(lt.Count), lt.Count)
		}
	}
	mean("estimate.estimate_ns", "estimate.estimate", 1)
	mean("estimate.feedback_ns", "estimate.feedback", 1)
	var reqTotal, reqSelf int64
	for _, name := range []string{"server.wire_submit", "server.wire_complete", "server.http_submit", "server.http_complete"} {
		reqTotal += tot[name].Total
		reqSelf += tot[name].Self
	}
	run.res.set("server.self_share", float64(reqSelf)/float64(reqTotal), rounds*conns)
	switch w.Topo {
	case topoCluster:
		// Per round, not per span: a round makes one request per backend.
		for metric, name := range map[string]string{"server.wire_submit_us_per_batch": "server.wire_submit", "server.wire_complete_us_per_batch": "server.wire_complete"} {
			run.res.set(metric, float64(tot[name].Total)/1e3/nRounds, tot[name].Count)
		}
		mean("wal.append_us_per_batch", "wal.append", 1e3)
	case topoDirect:
		mean("server.wire_submit_us.b1", "server.wire_submit", 1e3)
		mean("server.wire_complete_us.b1", "server.wire_complete", 1e3)
	case topoHTTP:
		mean("server.http_submit_us.b1", "server.http_submit", 1e3)
		mean("server.http_complete_us.b1", "server.http_complete", 1e3)
		mean("wal.append_us.b1", "wal.append", 1e3)
	}
	// By construction: the real run's closed-loop round time is the traced
	// layers' time per round (plus the router's measured overhead) plus
	// what is left unattributed.
	routerUS := run.res["router.overhead_us_per_batch"].Value
	run.res.set("bench.unattributed_us_per_batch", run.roundUS-tracedUS-routerUS, rounds*conns)
	run.res.set("bench.trace_overhead_share", (tracedUS-plainUS)/plainUS, rounds*conns)
	fmt.Printf("  traced replay: %d rounds, %.1f us per round decorated, %.1f us plain; the real closed phase took %.1f us per round\n",
		rounds*conns, tracedUS, plainUS, run.roundUS)

	if err := estimatorMetrics(run); err != nil {
		return err
	}
	path := filepath.Join(outDir, "trace-"+w.Name+".json")
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("  spans written to %s\n", path)
	return nil
}

// traceCluster replays the routed, durable, batched shape: decorated and
// plain over in-memory pipes for the ledger, then routed against direct
// over loopback TCP for the router's overhead. During the decorated replay
// the benchmark also plays follower (ship, mirror apply) and rotates.
func traceCluster(run *serveRun, dir string, rounds int, tr *tracer) (tracedUS, plainUS float64, err error) {
	mkNodes := func(tag string, t *tracer, tcp bool) ([]*node, error) {
		var nodes []*node
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("n%d", i)
			n, err := newNode(name, nodeOpts{walDir: filepath.Join(dir, tag+"-"+name), groupCommit: true, tr: t, tcp: tcp})
			if err != nil {
				for _, m := range nodes {
					m.close()
				}
				return nil, err
			}
			nodes = append(nodes, n)
		}
		return nodes, nil
	}
	closeAll := func(nodes []*node) {
		for _, n := range nodes {
			n.close()
		}
	}

	// Decorated replay, with replication and rotation every quarter.
	nodes, err := mkNodes("traced", tr, false)
	if err != nil {
		return 0, 0, err
	}
	defer closeAll(nodes)
	mirrors := make([]*wal.Mirror, len(nodes))
	for i, n := range nodes {
		if mirrors[i], err = wal.OpenMirror(filepath.Join(dir, "mirror-"+n.name), nil); err != nil {
			return 0, 0, err
		}
		defer mirrors[i].Close()
	}
	var shipNS, applyNS, rotateNS, journalBytes int64
	var chunks, rotations int
	follow := func() error {
		for i, n := range nodes {
			for {
				t0 := time.Now()
				st, err := n.log.ShipState(mirrors[i].NextRequest())
				t1 := time.Now()
				if err != nil {
					return err
				}
				progress, err := mirrors[i].Apply(st)
				if err != nil {
					return err
				}
				if !progress {
					break
				}
				shipNS += int64(t1.Sub(t0))
				applyNS += int64(time.Since(t1))
				chunks++
				if st.Kind == wire.WALKindJournal {
					journalBytes += int64(len(st.Data))
				}
			}
		}
		return nil
	}
	st, err := newSplitTransport(nodes, tr, true)
	if err != nil {
		return 0, 0, err
	}
	quarter := rounds * conns / 4
	total, tracedUS, err := replay(run.in, rounds, st, tr, func(n int) error {
		if n%16 == 0 {
			if err := follow(); err != nil {
				return err
			}
		}
		if quarter > 0 && n%quarter == 0 && n < rounds*conns {
			t0 := time.Now()
			for _, nd := range nodes {
				if err := nd.rotate(); err != nil {
					return err
				}
			}
			rotateNS += int64(time.Since(t0))
			rotations += len(nodes)
		}
		return nil
	})
	st.close()
	if err != nil {
		return 0, 0, err
	}
	if err := follow(); err != nil {
		return 0, 0, err
	}
	if chunks > 0 {
		run.res.set("wal.ship_us_per_chunk", float64(shipNS)/1e3/float64(chunks), chunks)
		run.res.set("wal.mirror_apply_us_per_chunk", float64(applyNS)/1e3/float64(chunks), chunks)
	}
	if rotations > 0 {
		run.res.set("wal.rotate_ms", float64(rotateNS)/1e6/float64(rotations), rotations)
	}
	// Journal bytes are shipped verbatim, so bytes shipped per record fed
	// back is the WAL's on-disk cost per record, headers included.
	run.res.set("wal.bytes_per_record", float64(journalBytes)/float64(total.Executions), total.Executions)

	// Recovery: reopen one backend's directory as a restart would.
	closeAll(nodes)
	t0 := time.Now()
	if _, _, err := recoverWAL(filepath.Join(dir, "traced-n0")); err != nil {
		return 0, 0, err
	}
	run.res.set("wal.recover_ms", float64(time.Since(t0))/1e6, 1)

	// Plain replay: the same without decorators, for the tracing overhead.
	plain, err := mkNodes("plain", nil, false)
	if err != nil {
		return 0, 0, err
	}
	defer closeAll(plain)
	pst, err := newSplitTransport(plain, nil, true)
	if err != nil {
		return 0, 0, err
	}
	_, plainUS, err = replay(run.in, rounds, pst, nil, nil)
	pst.close()
	if err != nil {
		return 0, 0, err
	}

	// Router overhead: routed against direct, both over loopback TCP.
	direct, err := mkNodes("direct", nil, true)
	if err != nil {
		return 0, 0, err
	}
	defer closeAll(direct)
	dst, err := newSplitTransport(direct, nil, false)
	if err != nil {
		return 0, 0, err
	}
	_, directUS, err := replay(run.in, rounds, dst, nil, nil)
	dst.close()
	if err != nil {
		return 0, 0, err
	}

	routed, err := mkNodes("routed", nil, true)
	if err != nil {
		return 0, 0, err
	}
	defer closeAll(routed)
	var backends []router.Backend
	for _, n := range routed {
		backends = append(backends, router.Backend{Name: n.name, Addr: n.tcp.Addr().String()})
	}
	rt, err := router.New(router.Config{Backends: backends})
	if err != nil {
		return 0, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	go func() { _ = rt.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()
	rc, err := dialSwp(ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	_, routedUS, err := replay(run.in, rounds, rc, nil, nil)
	rc.close()
	if err != nil {
		return 0, 0, err
	}
	run.res.set("router.overhead_us_per_batch", routedUS-directUS, rounds*conns)
	return tracedUS, plainUS, nil
}
