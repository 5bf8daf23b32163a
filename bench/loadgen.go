package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"

	"overprov/internal/wire"
)

// clock is the generator's view of time; tests substitute a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// sleepSlack is how early SleepUntil leaves the kernel: nanosleep returns
// about 75 µs late here (50 µs of timer slack plus the wake-up), and
// time.Sleep as much as 1 ms late for a sub-millisecond wait. The last
// stretch is spun; it is short, because a spinning generator takes the
// processor from the daemons it is timing.
const sleepSlack = 85 * time.Microsecond

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - sleepSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early return only lengthens the spin
	}
	for time.Now().Before(t) {
	}
}

// genStats is what one connection observed in one phase.
type genStats struct {
	// Open phase only: latency of each round's submit from the instant it
	// was due, of its first completion report from send to ack, and how
	// late each submit was actually sent.
	SubmitLat, CompleteLat, SendLag []time.Duration

	Requests, FailedRequests int // a request with any per-item error counts as failed
	Jobs, Done, Lost         int
	Executions, FailedExecs  int
	// Mismatches counts replies that differ from the oracle's prediction.
	Mismatches int
}

func (a *genStats) add(b *genStats) {
	a.SubmitLat = append(a.SubmitLat, b.SubmitLat...)
	a.CompleteLat = append(a.CompleteLat, b.CompleteLat...)
	a.SendLag = append(a.SendLag, b.SendLag...)
	a.Requests += b.Requests
	a.FailedRequests += b.FailedRequests
	a.Jobs += b.Jobs
	a.Done += b.Done
	a.Lost += b.Lost
	a.Executions += b.Executions
	a.FailedExecs += b.FailedExecs
	a.Mismatches += b.Mismatches
}

// pendJob is a submitted job that has not reached a terminal state yet.
type pendJob struct {
	idx     int   // index into the connection's script
	id      int64 // the daemon's job id
	attempt int   // completion reports sent for it so far
	allocMB float64
}

// connGen plays one connection's part of the script.
type connGen struct {
	t     transport
	clk   clock
	batch int
	jobs  []scriptJob
	// fails[i] is how many executions of jobs[i] fail before one succeeds
	// (maxAttempts: none does). A recording generator, the oracle, fills it
	// from the allocations it sees; every other one replays it.
	fails  []uint8
	record bool
	// carry makes a re-dispatched job's next report ride the next round's
	// completion request, so a round is always two requests however many
	// of its jobs fail; without it the reports follow at once, one request
	// per attempt, which is all a one-job-per-request protocol can do.
	carry bool
	st    genStats

	pend []pendJob
	res  []result
	ids  []int64
	succ []bool
}

// newConnGen makes the generator for connection c of script s. A batch of
// one job per request cannot carry a second report, so only batched scripts
// carry.
func newConnGen(t transport, clk clock, s *script, c int, fails []uint8) *connGen {
	return &connGen{t: t, clk: clk, batch: s.Batch, jobs: s.Conn[c], fails: fails, carry: s.Batch > 1}
}

// request sends one request. When due is non-zero the request belongs to
// an open phase: it is not sent before due, and its latency runs from due
// even if it was sent late, so a stall is charged to every request queued
// behind it.
func (g *connGen) request(due time.Time, lat *[]time.Duration, send func() ([]result, error)) ([]result, error) {
	start := g.clk.Now()
	if !due.IsZero() {
		g.clk.SleepUntil(due)
		sent := g.clk.Now()
		lag := sent.Sub(due)
		if lag < 0 {
			lag = 0
		}
		g.st.SendLag = append(g.st.SendLag, lag)
		start = due
	}
	res, err := send()
	g.st.Requests++
	if err != nil {
		g.st.FailedRequests++
		return res, err
	}
	if lat != nil {
		*lat = append(*lat, g.clk.Now().Sub(start))
	}
	for i := range res {
		if res[i].Err != "" {
			g.st.FailedRequests++
			break
		}
	}
	return res, nil
}

// playRound submits round r's jobs and reports the completion of every job
// then running. Only the submit is scheduled: the completion report goes
// out when the submit's reply arrives, as it causally must, and its latency
// is report to ack. A zero due time means a closed phase, which records no
// latencies.
func (g *connGen) playRound(r int, due time.Time) error {
	jobs := g.jobs[r*g.batch : (r+1)*g.batch]
	var subLat, compLat *[]time.Duration
	if !due.IsZero() {
		subLat, compLat = &g.st.SubmitLat, &g.st.CompleteLat
	}
	res, err := g.request(due, subLat, func() ([]result, error) { return g.t.submit(jobs, g.res[:0]) })
	g.res = res
	if err != nil {
		return fmt.Errorf("round %d submit: %w", r, err)
	}
	if len(res) != len(jobs) {
		return fmt.Errorf("round %d submit: %d results for %d jobs", r, len(res), len(jobs))
	}
	g.st.Jobs += len(jobs)
	for i := range res {
		if res[i].Err != "" || res[i].State != wire.StateRunning {
			// Pools never fill, so every job must start at once.
			g.st.Mismatches++
			continue
		}
		g.pend = append(g.pend, pendJob{idx: r*g.batch + i, id: res[i].ID, allocMB: res[i].AllocMB})
	}
	if err := g.reportPending(compLat); err != nil {
		return fmt.Errorf("round %d: %w", r, err)
	}
	if !g.carry {
		return g.flush()
	}
	return nil
}

// flush reports completions until no job of this connection is running.
func (g *connGen) flush() error {
	for len(g.pend) > 0 {
		if err := g.reportPending(nil); err != nil {
			return err
		}
	}
	return nil
}

// reportPending sends one completion request covering every running job,
// each with the outcome of its current attempt, and keeps the ones the
// daemon re-dispatched.
func (g *connGen) reportPending(lat *[]time.Duration) error {
	ids, succ := g.ids[:0], g.succ[:0]
	for k := range g.pend {
		p := &g.pend[k]
		var ok bool
		if g.record {
			if ok = succeeds(g.jobs[p.idx].UsedMemMB, p.allocMB); !ok {
				g.fails[p.idx]++
			}
		} else {
			// Past the oracle's last recorded attempt (a mismatch already
			// counted) report success, so the job still terminates.
			ok = p.attempt >= int(g.fails[p.idx])
		}
		ids, succ = append(ids, p.id), append(succ, ok)
		g.st.Executions++
		if !ok {
			g.st.FailedExecs++
		}
	}
	g.ids, g.succ = ids, succ
	res, err := g.request(time.Time{}, lat, func() ([]result, error) { return g.t.complete(ids, succ, g.res[:0]) })
	g.res = res
	if err != nil {
		return fmt.Errorf("completion: %w", err)
	}
	if len(res) != len(g.pend) {
		return fmt.Errorf("completion: %d results for %d reports", len(res), len(g.pend))
	}
	next := g.pend[:0]
	for k, p := range g.pend {
		want := wire.StateDone
		switch fails := int(g.fails[p.idx]); {
		case p.attempt < fails && p.attempt+1 < maxAttempts:
			want = wire.StateRunning
		case p.attempt < fails:
			want = wire.StateFailed
		}
		if res[k].Err != "" || res[k].State != want {
			g.st.Mismatches++
		}
		switch res[k].State {
		case wire.StateRunning:
			p.attempt++
			p.allocMB = res[k].AllocMB
			if p.attempt > 2*maxAttempts {
				return fmt.Errorf("job %d still running after %d completion reports", p.id, p.attempt)
			}
			next = append(next, p)
		case wire.StateDone:
			g.st.Done++
		case wire.StateFailed:
			g.st.Lost++
		}
	}
	g.pend = next
	return nil
}

// phase is one stretch of the script played on all connections: rounds
// [From, To) of each. Rate > 0 makes it an open phase at that many rounds
// per second over all connections; 0 makes it closed. Flush ends it by
// reporting completions until nothing is left running.
type phase struct {
	From, To int
	Rate     float64
	Flush    bool
}

// phaseResult is a phase's merged observations.
type phaseResult struct {
	genStats
	Wall time.Duration
	Err  error
}

// runPhase plays p on every generator concurrently, one goroutine per
// connection, and waits for all of them.
func runPhase(gens []*connGen, p phase, clk clock) phaseResult {
	var wg sync.WaitGroup
	errs := make([]error, len(gens))
	for _, g := range gens {
		g.st = genStats{}
	}
	start := clk.Now()
	// In an open phase connection c's k-th round is due at start +
	// (k·conns + c)·period, so the connections interleave evenly.
	var period time.Duration
	if p.Rate > 0 {
		period = time.Duration(float64(time.Second) / p.Rate)
	}
	for c, g := range gens {
		wg.Add(1)
		go func(c int, g *connGen) {
			defer wg.Done()
			for r := p.From; r < p.To; r++ {
				var due time.Time
				if period > 0 {
					due = start.Add(time.Duration((r-p.From)*len(gens)+c) * period)
				}
				if err := g.playRound(r, due); err != nil {
					errs[c] = fmt.Errorf("connection %d: %w", c, err)
					return
				}
			}
			if p.Flush {
				if err := g.flush(); err != nil {
					errs[c] = fmt.Errorf("connection %d: %w", c, err)
				}
			}
		}(c, g)
	}
	wg.Wait()
	out := phaseResult{Wall: clk.Now().Sub(start)}
	for c, g := range gens {
		out.add(&g.st)
		if errs[c] != nil && out.Err == nil {
			out.Err = errs[c]
		}
	}
	return out
}
