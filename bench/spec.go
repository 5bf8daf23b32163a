package main

import (
	"fmt"
	"sort"

	"overprov/internal/sched"
)

// metricDef names one reported metric. The two tables below are the single
// source for what the program prints, what BENCHMARK.json lists and what
// README.md documents; spec_test.go keeps BENCHMARK.json in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them from an untraced run. The simulator has a single operation,
// one load-sweep pass, so the sim workloads report that pass's wall time
// under all three latency names (README.md, "One metric set").
// submit_p99_ms is not here but in the ledger: its spread between runs is
// wider than any bound the contract allows (README.md, "Steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"submit_p50_ms", "ms", "lower"},
	{"complete_p50_ms", "ms", "lower"},
	{"complete_p99_ms", "ms", "lower"},
}

// perLayer is the cost ledger. A traced run prints all of them; a metric a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// The paper's KPIs and the failure count. They repeat exactly for a
	// seed, vary between seeds, and are checked against the oracle and
	// golden.json rather than bounded.
	{"failed_ops_share", "share", "lower"},
	{"failed_exec_share", "share", "lower"},
	{"lost_job_share", "share", "lower"},
	{"lowered_dispatch_share", "share", "higher"},
	{"util_gain_at_saturation", "share", "higher"},
	{"submit_p99_ms", "ms", "lower"},

	// From the untraced run itself: process accounting and scraped counters.
	{"schedd.backend.cpu_us_per_job", "us/job", "lower"},
	{"schedd.router.cpu_us_per_job", "us/job", "lower"},
	{"schedd.follower.cpu_us_per_job", "us/job", "lower"},
	{"bench.generator.cpu_us_per_job", "us/job", "lower"},
	{"schedd.backend.peak_rss_mb", "MB", "lower"},
	{"schedd.router.peak_rss_mb", "MB", "lower"},
	{"schedd.follower.peak_rss_mb", "MB", "lower"},
	{"schedd.start_ms", "ms", "lower"},
	{"schedd.drain_ms", "ms", "lower"},
	{"server.requests", "count", "lower"},
	{"server.feedback_events", "count", "lower"},
	{"server.dispatches", "count", "lower"},
	{"server.lowered_dispatches", "count", "higher"},
	{"server.degraded_estimates", "count", "lower"},
	{"server.degraded_feedbacks", "count", "lower"},
	{"server.reclaimed_mb_nodes", "MB", "higher"},
	{"server.running_at_end", "count", "lower"},
	{"server.queued_at_end", "count", "lower"},
	{"wal.records", "count", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.fsyncs_per_record", "ratio", "lower"},
	{"wal.errors", "count", "lower"},
	{"wal.bytes_per_record", "B", "lower"},
	{"wal.rotations", "count", "lower"},
	{"wal.fsync_probe_us", "us", "lower"},
	{"router.retries", "count", "lower"},
	{"router.failovers", "count", "lower"},
	{"router.degraded", "count", "lower"},
	{"repl.lag_records_at_last_ack", "count", "lower"},
	{"repl.catchup_ms", "ms", "lower"},
	{"bench.send_lag_p99_ms", "ms", "lower"},
	{"bench.build_s", "s", "lower"},

	// Traced run, serving layers.
	{"wire.encode_ns_per_job.b64", "ns", "lower"},
	{"wire.decode_ns_per_job.b64", "ns", "lower"},
	{"wire.bytes_per_job.b64", "B", "lower"},
	{"wire.encode_ns_per_job.b1", "ns", "lower"},
	{"wire.decode_ns_per_job.b1", "ns", "lower"},
	{"wire.bytes_per_job.b1", "B", "lower"},
	{"similarity.key_ns", "ns", "lower"},
	{"ring.hash_lookup_ns", "ns", "lower"},
	{"ring.imbalance", "ratio", "lower"},
	{"ring.backends_per_batch", "count", "lower"},
	{"router.overhead_us_per_batch", "us", "lower"},
	{"server.wire_submit_us_per_batch", "us", "lower"},
	{"server.wire_complete_us_per_batch", "us", "lower"},
	{"server.wire_submit_us.b1", "us", "lower"},
	{"server.wire_complete_us.b1", "us", "lower"},
	{"server.http_submit_us.b1", "us", "lower"},
	{"server.http_complete_us.b1", "us", "lower"},
	{"server.self_share", "share", "lower"},
	{"estimate.estimate_ns", "ns", "lower"},
	{"estimate.feedback_ns", "ns", "lower"},
	{"estimate.synchronized_op_ns.g1", "ns", "lower"},
	{"estimate.synchronized_op_ns.g2", "ns", "lower"},
	{"estimate.sharded_op_ns.g1", "ns", "lower"},
	{"estimate.sharded_op_ns.g2", "ns", "lower"},
	{"estimate.groups", "count", "lower"},
	{"estimate.state_bytes", "B", "lower"},
	{"estimate.save_state_ms", "ms", "lower"},
	{"estimate.load_state_ms", "ms", "lower"},
	{"cluster.shared_alloc_release_ns", "ns", "lower"},
	{"wal.append_us_per_batch", "us", "lower"},
	{"wal.append_us.b1", "us", "lower"},
	{"wal.append_us.b1.record_mode", "us", "lower"},
	{"wal.rotate_ms", "ms", "lower"},
	{"wal.recover_ms", "ms", "lower"},
	{"wal.ship_us_per_chunk", "us", "lower"},
	{"wal.mirror_apply_us_per_chunk", "us", "lower"},
	{"bench.unattributed_us_per_batch", "us", "lower"},
	{"bench.trace_overhead_share", "share", "lower"},

	// Traced run, simulator layers.
	{"sim.run_s", "s", "lower"},
	{"sim.self_share", "share", "lower"},
	{"sim.dispatches", "count", "lower"},
	{"sim.resource_failures", "count", "lower"},
	{"sim.dispatch_s", "s", "lower"},
	{"sched.schedule_calls", "count", "lower"},
	{"sched.schedule_self_s", "s", "lower"},
	{"sched.try_calls", "count", "lower"},
	{"estimate.sim_estimate_calls", "count", "lower"},
	{"estimate.sim_feedback_calls", "count", "lower"},
	{"cluster.alloc_release_ns", "ns", "lower"},
	{"metrics.summarize_ms", "ms", "lower"},
	{"experiments.sweep_wall_s", "s", "lower"},
	{"experiments.parallel_efficiency", "share", "higher"},
	{"synth.generate_ms", "ms", "lower"},
	{"trace.write_swf_ms", "ms", "lower"},
	{"trace.read_swf_ms", "ms", "lower"},
	{"trace.read_swfb_ms", "ms", "lower"},
}

// sample is one measured value and the number of observations behind it.
type sample struct {
	Value float64
	N     int
}

// results collects a run's metrics by name.
type results map[string]sample

func (r results) set(name string, v float64, n int) { r[name] = sample{v, n} }

// print writes every metric of defs that r holds, one per line, in table
// order. Metrics r lacks are skipped: they are not measured on this workload.
func (r results) print(defs []metricDef) {
	for _, d := range defs {
		s, ok := r[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-36s %14.6g %-7s n=%d\n", d.Name, s.Value, d.Unit, s.N)
	}
}

// unknown lists names in r that neither table defines, a programming error.
func (r results) unknown() []string {
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.Name] = true
	}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	var out []string
	for name := range r {
		if !known[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// nominalSeconds is the --seconds value the workload sizes below are
// written for. Work is fixed, not timed: --seconds scales the job counts
// linearly, so the same seed and seconds give the same work on any commit.
const nominalSeconds = 12

// topology says which processes a serve workload starts.
type topology int

const (
	topoNone    topology = iota // simulator workload, no children
	topoCluster                 // router, 2 durable backends, 2 followers
	topoDirect                  // one non-durable backend, swp
	topoHTTP                    // one durable backend, JSON single-job endpoints
)

// workload is one set of inputs the benchmark runs. Sizes are at
// nominalSeconds on the 2-core sandbox the benchmark was sized on.
type workload struct {
	Name string
	Why  string
	Topo topology

	// Simulator workloads: Passes times, one sweep of Loads under Policy
	// over each of Windows stretches of TraceJobs consecutive jobs, spaced
	// evenly through the generated trace (Windows 0: the whole trace once).
	Policy    sched.Policy
	Loads     []float64
	Passes    int
	Windows   int
	TraceJobs int

	// Serve workloads: Batch jobs per request, a closed phase of
	// ClosedRounds requests pairs and an open phase of OpenRounds at
	// OpenRate rounds per second, both summed over the connections.
	Batch        int
	ClosedRounds int
	OpenRounds   int
	OpenRate     float64
	// TracedJobs is how many script jobs the in-process traced replay plays.
	TracedJobs int
}

// conns is the number of generator connections; the contract allows at
// most one per processor and the sandbox has two.
const conns = 2

// clusterSpec keeps every backend's pools from ever filling, so allocation
// is a function of the estimate alone and the oracle can predict it.
const clusterSpec = "1048576x32,1048576x24"

var fullLoads = []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2}

var workloads = []workload{
	{
		Name: "sim-fcfs-sweep",
		Why:  "Figure 5/6 load sweep under FCFS: sim event loop, estimate handle fast path and cluster do the work, sched almost none, serving layers none",
		Topo: topoNone, Policy: sched.FCFS{}, Loads: fullLoads, Passes: 26,
	},
	{
		Name: "sim-easy-backfill",
		Why:  "same sweep under EASY backfilling at loads 1.0 (the knee), 1.6 and 2.0: sched.View construction and reservation arithmetic dominate, so a FCFS gain that costs the policy view shows here",
		Topo: topoNone, Policy: sched.EASY{}, Loads: []float64{1.0, 1.6, 2.0}, Passes: 4, Windows: 6, TraceJobs: 4500,
	},
	{
		Name: "serve-cluster-durable",
		Why:  "deployed shape over swp batch 64: router, 2 group-commit WAL backends, 2 followers; wal fsync, router fan-out, ring, repl shipping and WAL rotations do the work",
		Topo: topoCluster, Batch: 64, ClosedRounds: 2600, OpenRounds: 1600, OpenRate: 200, TracedJobs: 32768,
	},
	{
		Name: "serve-direct-single",
		Why:  "one non-durable schedd over swp, one job per frame: per-frame wire cost, syscalls, admission and estimate; bypasses wal, router, ring and repl",
		Topo: topoDirect, Batch: 1, ClosedRounds: 60000, OpenRounds: 56000, OpenRate: 8000, TracedJobs: 32768,
	},
	{
		Name: "serve-http-single-durable",
		Why:  "one durable schedd over the JSON single-job endpoints: HTTP handlers and lone-caller group commit (about one fsync per job) instead of swp batches under one fsync",
		Topo: topoHTTP, Batch: 1, ClosedRounds: 10000, OpenRounds: 7000, OpenRate: 1000, TracedJobs: 4096,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled returns w with its work scaled from nominalSeconds to seconds.
// Latency series never drop below 1,000 requests and every sim workload
// keeps three passes, so that jobs_per_s is a median that was observed.
func (w workload) scaled(seconds int) workload {
	f := float64(seconds) / nominalSeconds
	scale := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		if v := int(float64(n)*f + 0.5); v > floor {
			return v
		}
		return floor
	}
	if w.Topo == topoNone {
		w.Passes = scale(w.Passes, 3)
		return w
	}
	w.ClosedRounds = scale(w.ClosedRounds, 1000)
	w.OpenRounds = scale(w.OpenRounds, 1000)
	// Keep rounds even so both connections play the same number.
	w.ClosedRounds += w.ClosedRounds % conns
	w.OpenRounds += w.OpenRounds % conns
	return w
}
