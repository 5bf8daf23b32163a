package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"overprov/internal/estimate"
	"overprov/internal/experiments"
	"overprov/internal/router"
	"overprov/internal/server"
	"overprov/internal/synth"
	"overprov/internal/trace"
	"overprov/internal/wal"
)

// saveInterval is the backends' WAL rotation period. The issue sized 5 s
// for a 22 s run; it is scaled with the run so several rotations still
// fall inside the measured phases.
const saveInterval = "2s"

// generateTrace makes the simulation-ready trace for a seed, bypassing the
// process-wide workload cache so repeated set-ups pay for generation.
func generateTrace(seed uint64) (*trace.Trace, experiments.Scale, error) {
	s := experiments.FullScale()
	s.TraceCfg.Seed = seed
	s.Seed = seed + 6
	raw, err := synth.Generate(s.TraceCfg)
	if err != nil {
		return nil, s, err
	}
	return raw.Prepared(s.TraceCfg.MaxNodes / 2), s, nil
}

// serveInputs is everything a serve workload derives from the seed.
type serveInputs struct {
	sc *script
	or *oracle
}

func prepareServe(w workload, seed uint64) (*serveInputs, error) {
	tr, _, err := generateTrace(seed)
	if err != nil {
		return nil, err
	}
	sc, err := buildScript(tr, conns, w.Batch, (w.ClosedRounds+w.OpenRounds)/conns)
	if err != nil {
		return nil, err
	}
	or, err := runOracle(sc)
	if err != nil {
		return nil, err
	}
	return &serveInputs{sc: sc, or: or}, nil
}

// backendProc is one scheduling daemon of a deployment.
type backendProc struct {
	name                          string
	proc                          *child
	httpAddr, wireAddr, debugAddr string
	walDir                        string
	follower                      *child
	mirrorDir                     string
}

// deployment is a started topology with the generator connected to it.
type deployment struct {
	dir        string
	backends   []*backendProc
	router     *child
	routerAddr string
	routerMet  string
	gens       []transport
	startMS    float64
}

func httpOK(url string) bool {
	resp, err := http.Get(url)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func getJSON(url string, v interface{}) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// deploy starts w's topology under a fresh directory in outDir, waits until
// every process is ready, and connects the generator. On error everything
// started so far is torn down.
func deploy(w workload, bin, outDir string) (_ *deployment, err error) {
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	cleaner.addDir(dir)
	// d is a local, not the named result: `return nil, err` must not take
	// the deployment away from the deferred teardown.
	d := &deployment{dir: dir}
	defer func() {
		if err != nil {
			d.dumpLogs(os.Stderr)
			d.teardown()
		}
	}()
	begin := time.Now()
	durable := w.Topo != topoDirect
	nBackends := 1
	if w.Topo == topoCluster {
		nBackends = 2
	}
	addr := func() string {
		if err != nil {
			return ""
		}
		var a string
		a, err = freeAddr()
		return a
	}
	for i := 0; i < nBackends; i++ {
		b := &backendProc{name: fmt.Sprintf("n%d", i), httpAddr: addr(), debugAddr: addr()}
		args := []string{"-addr", b.httpAddr, "-debug-addr", b.debugAddr, "-cluster", clusterSpec}
		if w.Topo != topoHTTP {
			b.wireAddr = addr()
			args = append(args, "-wire-addr", b.wireAddr)
		}
		if durable {
			b.walDir = filepath.Join(dir, b.name+"-wal")
			args = append(args, "-wal-dir", b.walDir, "-wal-group-commit", "-save-interval", saveInterval)
		}
		if err != nil {
			return nil, err
		}
		if b.proc, err = startChild("backend", bin, filepath.Join(dir, b.name+".log"), args...); err != nil {
			return nil, err
		}
		d.backends = append(d.backends, b)
	}
	for _, b := range d.backends {
		b := b
		if err = waitFor(10*time.Second, "backend "+b.name, func() bool {
			return b.proc.exited() || httpOK("http://"+b.httpAddr+"/api/v1/healthz")
		}); err != nil {
			return nil, err
		}
		if b.proc.exited() {
			return nil, fmt.Errorf("backend %s exited at start-up", b.name)
		}
	}
	if w.Topo == topoCluster {
		route := ""
		for i, b := range d.backends {
			if i > 0 {
				route += ","
			}
			route += b.name + "=" + b.wireAddr
			b.mirrorDir = filepath.Join(dir, b.name+"-mirror")
			b.follower, err = startChild("follower", bin, filepath.Join(dir, b.name+"-follower.log"),
				"-follow", b.wireAddr, "-wal-dir", b.mirrorDir, "-save-interval", saveInterval)
			if err != nil {
				return nil, err
			}
		}
		d.routerAddr, d.routerMet = addr(), addr()
		if err != nil {
			return nil, err
		}
		d.router, err = startChild("router", bin, filepath.Join(dir, "router.log"),
			"-route", route, "-wire-addr", d.routerAddr, "-metrics-addr", d.routerMet)
		if err != nil {
			return nil, err
		}
		for _, b := range d.backends {
			b := b
			// A follower is ready once its first poll has landed in the mirror.
			if err = waitFor(10*time.Second, "follower of "+b.name, func() bool {
				entries, _ := os.ReadDir(b.mirrorDir)
				return len(entries) > 0 || b.follower.exited()
			}); err != nil {
				return nil, err
			}
			if b.follower.exited() {
				return nil, fmt.Errorf("follower of %s exited at start-up", b.name)
			}
		}
	}
	// The generator's swp target: schedd answers healthz before it binds
	// -wire-addr, and a router has no healthz, so the dial is what is waited for.
	target, listener := "", d.router
	switch w.Topo {
	case topoCluster:
		target = d.routerAddr
	case topoDirect:
		target, listener = d.backends[0].wireAddr, d.backends[0].proc
	}
	for c := 0; c < conns; c++ {
		var t transport
		if w.Topo == topoHTTP {
			t = newHTTPConn(d.backends[0].httpAddr)
		} else if t, err = dialWhenListening(target, listener); err != nil {
			return nil, err
		}
		d.gens = append(d.gens, t)
	}
	d.startMS = float64(time.Since(begin)) / float64(time.Millisecond)
	return d, nil
}

// dialWhenListening connects to a child's swp listener, retrying until the
// child has bound it or has exited.
func dialWhenListening(addr string, c *child) (transport, error) {
	var t transport
	err := waitFor(10*time.Second, c.role+" to listen on "+addr, func() bool {
		sc, derr := dialSwp(addr)
		if derr != nil {
			return c.exited()
		}
		t = sc
		return true
	})
	if err == nil && t == nil {
		err = fmt.Errorf("%s exited before it listened on %s", c.role, addr)
	}
	return t, err
}

func (d *deployment) children() []*child {
	var out []*child
	for _, b := range d.backends {
		out = append(out, b.proc)
		if b.follower != nil {
			out = append(out, b.follower)
		}
	}
	if d.router != nil {
		out = append(out, d.router)
	}
	return out
}

// dumpLogs copies the tail of every child's log to w, for a run that failed.
func (d *deployment) dumpLogs(w io.Writer) {
	logs, _ := filepath.Glob(filepath.Join(d.dir, "*.log"))
	for _, path := range logs {
		raw, err := os.ReadFile(path)
		if err != nil || len(raw) == 0 {
			continue
		}
		if len(raw) > 2000 {
			raw = raw[len(raw)-2000:]
		}
		fmt.Fprintf(w, "--- %s\n%s\n", filepath.Base(path), raw)
	}
}

// teardown discards a deployment without draining it.
func (d *deployment) teardown() {
	for _, t := range d.gens {
		t.close()
	}
	for _, c := range d.children() {
		if c != nil {
			c.kill()
		}
	}
	_ = os.RemoveAll(d.dir)
}

// checks collects the output checks' failures; an empty list is a pass.
type checks []string

func (c *checks) failf(format string, args ...interface{}) {
	*c = append(*c, fmt.Sprintf(format, args...))
}

// serveRun is what one untraced run of a serve workload produced.
type serveRun struct {
	res               results
	checks            checks
	attempted, failed int
	// roundUS is the closed phase's mean time per round per connection,
	// the figure the traced ledger is reconciled against.
	roundUS float64
	in      *serveInputs
}

// setupRepeats is how many times a run sets up from scratch; setup_s is
// the median, so one slow process start does not decide it.
const setupRepeats = 3

// runServe sets up, plays both phases against the real binaries, drains
// them and checks everything they left behind.
func runServe(w workload, seed uint64, bin, outDir string) (run *serveRun, err error) {
	run = &serveRun{res: results{}}
	var (
		in     *serveInputs
		d      *deployment
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.teardown()
		}
		begin := time.Now()
		if in, err = prepareServe(w, seed); err != nil {
			return nil, err
		}
		if d, err = deploy(w, bin, outDir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer func() {
		if err != nil {
			d.dumpLogs(os.Stderr)
		}
		d.teardown()
	}()
	run.in = in
	run.res.set("setup_s", median(setups), len(setups))
	run.res.set("schedd.start_ms", d.startMS, 1)

	gens := make([]*connGen, conns)
	for c := range gens {
		gens[c] = newConnGen(d.gens[c], realClock{}, in.sc, c, in.or.Fails[c])
	}
	cpu0 := selfCPU()
	closedRounds := w.ClosedRounds / conns
	closed := runPhase(gens, phase{From: 0, To: closedRounds}, realClock{})
	if closed.Err != nil {
		return nil, fmt.Errorf("closed phase: %w", closed.Err)
	}
	open := runPhase(gens, phase{From: closedRounds, To: in.sc.rounds(0), Rate: w.OpenRate, Flush: true}, realClock{})
	if open.Err != nil {
		return nil, fmt.Errorf("open phase: %w", open.Err)
	}
	genCPU := selfCPU() - cpu0
	if w.Topo == topoCluster {
		run.replication(d, time.Now())
	}

	total := closed.genStats
	total.add(&open.genStats)
	run.attempted, run.failed = total.Requests, total.FailedRequests
	run.roundUS = float64(closed.Wall) / float64(time.Microsecond) / float64(closedRounds)

	sub, comp, lag := summarize(open.SubmitLat), summarize(open.CompleteLat), summarize(open.SendLag)
	fmt.Printf("  closed phase: %d jobs in %.3fs, %d requests; open phase: %d jobs at %.0f rounds/s in %.3fs (offered %.3fs)\n",
		closed.Jobs, closed.Wall.Seconds(), closed.Requests, open.Jobs, w.OpenRate, open.Wall.Seconds(), float64(w.OpenRounds)/w.OpenRate)
	fmt.Printf("  open-phase percentiles: submit p%g (n=%d), complete p%g (n=%d)\n", sub.HighPct, sub.N, comp.HighPct, comp.N)
	run.res.set("jobs_per_s", float64(closed.Jobs)/closed.Wall.Seconds(), closed.Jobs)
	run.res.set("submit_p50_ms", sub.P50, sub.N)
	run.res.set("submit_p99_ms", sub.High, sub.N)
	run.res.set("complete_p50_ms", comp.P50, comp.N)
	run.res.set("complete_p99_ms", comp.High, comp.N)
	run.res.set("bench.send_lag_p99_ms", lag.High, lag.N)
	run.res.set("bench.generator.cpu_us_per_job", float64(genCPU)/float64(time.Microsecond)/float64(total.Jobs), total.Jobs)
	run.res.set("failed_ops_share", float64(total.FailedRequests)/float64(total.Requests), total.Requests)
	run.res.set("failed_exec_share", float64(total.FailedExecs)/float64(total.Executions), total.Executions)
	run.res.set("lost_job_share", float64(total.Lost)/float64(total.Jobs), total.Jobs)

	// Every script job must have reached a terminal state, as predicted.
	if total.Done+total.Lost != total.Jobs {
		run.checks.failf("%d of %d jobs did not reach done/failed", total.Jobs-total.Done-total.Lost, total.Jobs)
	}
	if total.Mismatches > 0 {
		run.checks.failf("%d replies differ from the oracle's prediction", total.Mismatches)
	}
	if total.FailedRequests > 0 {
		run.checks.failf("%d of %d requests failed or carried a per-item error", total.FailedRequests, total.Requests)
	}
	if total.Requests != in.or.Requests || total.Executions != in.or.Executions || total.FailedExecs != in.or.FailedExecs || total.Lost != in.or.Lost {
		run.checks.failf("generator saw requests/executions/failed/lost %d/%d/%d/%d, oracle %d/%d/%d/%d",
			total.Requests, total.Executions, total.FailedExecs, total.Lost,
			in.or.Requests, in.or.Executions, in.or.FailedExecs, in.or.Lost)
	}

	if err = run.scrape(w, d); err != nil {
		return nil, err
	}
	for _, t := range d.gens {
		t.close()
	}
	if err = run.drainAndVerify(w, d, total.Jobs); err != nil {
		return nil, err
	}
	return run, nil
}

// scrape reads every backend's status and metrics, and the router's, after
// the last reply, and checks them against the oracle.
func (run *serveRun) scrape(w workload, d *deployment) error {
	var (
		st  server.StatusView
		met server.MetricsView
	)
	for _, b := range d.backends {
		var s server.StatusView
		if err := getJSON("http://"+b.httpAddr+"/api/v1/status", &s); err != nil {
			return err
		}
		var m server.MetricsView
		if err := getJSON("http://"+b.debugAddr+"/api/v1/metrics", &m); err != nil {
			return err
		}
		st.Running += s.Running
		st.Queued += s.Queued
		st.Dispatches += s.Dispatches
		st.LoweredDispatches += s.LoweredDispatches
		st.ReclaimedMBNodes += s.ReclaimedMBNodes
		st.Done += s.Done
		st.Failed += s.Failed
		met.RequestsServed += m.RequestsServed
		met.FeedbackEvents += m.FeedbackEvents
		met.WALRecords += m.WALRecords
		met.WALErrors += m.WALErrors
		met.WALSyncs += m.WALSyncs
		met.DegradedEstimates += m.DegradedEstimates
		met.DegradedFeedbacks += m.DegradedFeedbacks
	}
	r, or := run.res, run.in.or
	r.set("server.requests", float64(met.RequestsServed), 1)
	r.set("server.feedback_events", float64(met.FeedbackEvents), 1)
	r.set("server.dispatches", float64(st.Dispatches), 1)
	r.set("server.lowered_dispatches", float64(st.LoweredDispatches), 1)
	r.set("server.degraded_estimates", float64(met.DegradedEstimates), 1)
	r.set("server.degraded_feedbacks", float64(met.DegradedFeedbacks), 1)
	r.set("server.reclaimed_mb_nodes", st.ReclaimedMBNodes, 1)
	r.set("server.running_at_end", float64(st.Running), 1)
	r.set("server.queued_at_end", float64(st.Queued), 1)
	r.set("lowered_dispatch_share", float64(st.LoweredDispatches)/float64(st.Dispatches), st.Dispatches)
	if st.Running != 0 || st.Queued != 0 {
		run.checks.failf("backends still hold %d running and %d queued jobs", st.Running, st.Queued)
	}
	if st.Dispatches != or.Status.Dispatches || st.LoweredDispatches != or.Status.LoweredDispatches ||
		st.Done != or.Status.Done || st.Failed != or.Status.Failed || met.FeedbackEvents != or.FeedbackEvents {
		run.checks.failf("backends report dispatches/lowered/done/failed/feedback %d/%d/%d/%d/%d, oracle %d/%d/%d/%d/%d",
			st.Dispatches, st.LoweredDispatches, st.Done, st.Failed, met.FeedbackEvents,
			or.Status.Dispatches, or.Status.LoweredDispatches, or.Status.Done, or.Status.Failed, or.FeedbackEvents)
	}
	if met.DegradedEstimates != 0 || met.DegradedFeedbacks != 0 {
		run.checks.failf("estimator degraded %d estimates and %d feedbacks", met.DegradedEstimates, met.DegradedFeedbacks)
	}
	if w.Topo != topoDirect {
		r.set("wal.records", float64(met.WALRecords), 1)
		r.set("wal.fsyncs", float64(met.WALSyncs), 1)
		r.set("wal.fsyncs_per_record", float64(met.WALSyncs)/float64(met.WALRecords), int(met.WALRecords))
		r.set("wal.errors", float64(met.WALErrors), 1)
		if met.WALRecords != or.FeedbackEvents || met.WALErrors != 0 {
			run.checks.failf("WAL holds %d records with %d errors, oracle fed back %d", met.WALRecords, met.WALErrors, or.FeedbackEvents)
		}
	}
	if w.Topo == topoDirect {
		// No WAL to replay: the live estimator itself must match.
		resp, err := http.Get("http://" + d.backends[0].httpAddr + "/api/v1/estimates")
		if err != nil {
			return err
		}
		snap, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return err
		}
		if !bytes.Equal(snap, or.Snapshot) {
			run.checks.failf("live estimator state (%d bytes) differs from the oracle's snapshot (%d bytes)", len(snap), len(or.Snapshot))
		}
	}
	if d.router != nil {
		var rm router.RouterMetrics
		if err := getJSON("http://"+d.routerMet+"/api/v1/metrics", &rm); err != nil {
			return err
		}
		r.set("router.retries", float64(rm.Retries), 1)
		r.set("router.failovers", float64(rm.Failovers), 1)
		r.set("router.degraded", float64(rm.Degraded), 1)
		if rm.Degraded != 0 || rm.Failovers != 0 {
			run.checks.failf("router degraded %d submits and failed over %d times in a healthy run", rm.Degraded, rm.Failovers)
		}
	}
	return nil
}

// sameWAL reports whether two WAL directories dump to the same snapshot
// and the same replayable records. A directory caught mid-rotation reads
// as different, never as an error.
func sameWAL(a, b string) (same bool, aRecs, bRecs int) {
	as, ar, aerr := wal.Dump(a, nil)
	bs, br, berr := wal.Dump(b, nil)
	if aerr != nil || berr != nil {
		return false, len(ar), len(br)
	}
	if !bytes.Equal(as, bs) || len(ar) != len(br) {
		return false, len(ar), len(br)
	}
	for i := range ar {
		if ar[i] != br[i] {
			return false, len(ar), len(br)
		}
	}
	return true, len(ar), len(br)
}

// walGeneration is the newest journal generation in a WAL directory, read
// off the file names (wal.Dump does not say), 0 when there is none.
func walGeneration(dir string) uint64 {
	var newest uint64
	names, _ := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	for _, name := range names {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "journal-%d.wal", &seq); err == nil && seq > newest {
			newest = seq
		}
	}
	return newest
}

// mirrorLag is how many of the leader's records its mirror lacks. A mirror
// still on an older generation lacks the leader's whole current journal and
// an unknown rest of the generation the leader has already deleted, so the
// figure is then a lower bound.
func mirrorLag(leaderDir, mirrorDir string) int {
	same, l, m := sameWAL(leaderDir, mirrorDir)
	switch {
	case same:
		return 0
	case walGeneration(mirrorDir) < walGeneration(leaderDir):
		return l
	case l > m:
		return l - m
	}
	return 0
}

// replication measures how far each follower's mirror trailed its leader
// when the last reply arrived, and how long it took to catch up; caught up
// means the mirror dumps to exactly the leader's snapshot and records. It
// runs straight after the open phase, before anything else can give the
// followers time.
func (run *serveRun) replication(d *deployment, lastAck time.Time) {
	lagRecords := 0
	for _, b := range d.backends {
		lagRecords += mirrorLag(b.walDir, b.mirrorDir)
	}
	run.res.set("repl.lag_records_at_last_ack", float64(lagRecords), len(d.backends))
	for _, b := range d.backends {
		b := b
		if err := waitFor(10*time.Second, "mirror of "+b.name+" to catch up", func() bool {
			same, _, _ := sameWAL(b.walDir, b.mirrorDir)
			return same
		}); err != nil {
			run.checks.failf("%v", err)
		}
	}
	run.res.set("repl.catchup_ms", float64(time.Since(lastAck))/float64(time.Millisecond), len(d.backends))
}

// recoverWAL replays a drained backend's WAL directory the way a restart
// would and returns the recovered estimator state and the WAL generation.
func recoverWAL(dir string) (state []byte, seq uint64, err error) {
	_, est, err := newBackendParts()
	if err != nil {
		return nil, 0, err
	}
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, 0, err
	}
	defer l.Close()
	if _, err := l.Recover(est.LoadState, func(r wal.Record) error {
		est.Feedback(r.Outcome())
		return nil
	}); err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if err := est.SaveState(&buf); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), l.Seq(), nil
}

// drainAndVerify SIGTERMs followers, router and backends in that order,
// accounts their CPU and memory, and checks that what the backends left on
// disk recovers to the oracle's estimator state.
func (run *serveRun) drainAndVerify(w workload, d *deployment, jobs int) error {
	r := run.res
	role := func(name string, procs []*child) error {
		if len(procs) == 0 {
			return nil
		}
		var cpu time.Duration
		var rss float64
		for _, p := range procs {
			u, err := p.drain(15 * time.Second)
			if err != nil {
				return err
			}
			cpu += u.CPU
			if u.PeakRSSMB > rss {
				rss = u.PeakRSSMB
			}
		}
		r.set("schedd."+name+".cpu_us_per_job", float64(cpu)/float64(time.Microsecond)/float64(jobs), jobs)
		r.set("schedd."+name+".peak_rss_mb", rss, len(procs))
		return nil
	}
	var followers, routers, backends []*child
	for _, b := range d.backends {
		backends = append(backends, b.proc)
		if b.follower != nil {
			followers = append(followers, b.follower)
		}
	}
	if d.router != nil {
		routers = append(routers, d.router)
	}
	if err := role("follower", followers); err != nil {
		return err
	}
	if err := role("router", routers); err != nil {
		return err
	}
	begin := time.Now()
	if err := role("backend", backends); err != nil {
		return err
	}
	r.set("schedd.drain_ms", float64(time.Since(begin))/float64(time.Millisecond), len(backends))
	if w.Topo == topoDirect {
		return nil
	}
	var states []io.Reader
	rotations := 0
	for _, b := range d.backends {
		state, seq, err := recoverWAL(b.walDir)
		if err != nil {
			return fmt.Errorf("recovering %s: %w", b.walDir, err)
		}
		states = append(states, bytes.NewReader(state))
		rotations += int(seq) - 1
	}
	r.set("wal.rotations", float64(rotations), len(d.backends))
	var merged bytes.Buffer
	if err := estimate.MergeStates(&merged, states...); err != nil {
		return err
	}
	if !bytes.Equal(merged.Bytes(), run.in.or.Snapshot) {
		run.checks.failf("state recovered from the WAL directories (%d bytes) differs from the oracle's snapshot (%d bytes)",
			merged.Len(), len(run.in.or.Snapshot))
	}
	return nil
}
