// Command schedd runs the estimation-aware scheduler as an HTTP daemon:
// the paper's Figure 2 loop in wall-clock time. Jobs are submitted over
// the JSON API, matched using learned estimates of their actual
// requirements, and completion reports train the estimator. Learned
// similarity-group state persists across restarts in a write-ahead
// feedback journal with periodic snapshot rotation (-wal-dir): every
// acked completion hits the fsynced journal before the estimator trains
// on it, and restart recovery replays exactly the acked feedback stream.
// GET /api/v1/estimates exports the learned state on demand.
//
// Usage:
//
//	schedd -addr :8080                          # paper cluster, α=2 β=0
//	schedd -cluster "512x32,512x24" -alpha 2    # explicit cluster spec
//	schedd -wal-dir /var/lib/schedd/wal         # durable feedback WAL + snapshots
//	schedd -wal-dir ... -wal-group-commit       # batched-fsync durability (group commit)
//	schedd -wal-group-window 2ms -wal-group-max 128   # widen the commit window
//	schedd -shards 64 -debug-addr :6060         # wider striping + pprof/metrics
//	schedd -drain-timeout 30s                   # graceful-shutdown deadline
//	schedd -wire-addr :8081                     # swp binary batch protocol listener
//	schedd -route "n0=h0:8081,n1=h1:8081" -wire-addr :8081   # stateless router tier
//	schedd -route "n0=h0:8081/s0:8081" -metrics-addr :6070   # + standby failover, health metrics
//	schedd -follow h0:8081 -wal-dir /var/lib/wal             # WAL-shipping follower
//	schedd -follow h0:8081 -wal-dir ... -wire-addr s0:8081 -promote-misses 5
//	                                                         # + auto-promotion on leader death
//
// API (see internal/server):
//
//	POST /api/v1/jobs                {"user":3,"app":7,"nodes":32,"req_mem_mb":32,"req_time_s":600}
//	POST /api/v1/jobs/{id}/complete  {"success":true,"used_mem_mb":5.2}
//	POST /api/v1/jobs:batch          {"jobs":[...]}
//	POST /api/v1/complete:batch      {"completions":[{"id":7,"success":true}]}
//	GET  /api/v1/jobs/{id}  /api/v1/status  /api/v1/estimates  /api/v1/healthz
//
// With -wire-addr set, a third listener serves the swp binary batch
// protocol (internal/wire): length-prefixed CRC-framed submit/complete
// batches over persistent TCP connections, for high-rate clients that
// outgrow HTTP+JSON. Both protocols drive the same scheduling core, so
// a mixed fleet of HTTP and wire clients trains one estimator.
//
// On SIGTERM/SIGINT the daemon flips /api/v1/healthz to 503 (so load
// balancers stop routing to it), drains in-flight requests up to
// -drain-timeout, logs how many were drained vs aborted, takes a final
// durable snapshot, and exits.
//
// With -debug-addr set, a second listener serves net/http/pprof under
// /debug/pprof/ and the serving counters at GET /api/v1/metrics. It is
// a separate listener so profiling and scraping can stay firewalled off
// from the job-submission API.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
	"overprov/internal/server"
	"overprov/internal/units"
	"overprov/internal/wal"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		clSpec         = flag.String("cluster", "512x32,512x24", "cluster pools as <nodes>x<memMB>[,...]")
		alpha          = flag.Float64("alpha", 2, "Algorithm 1 learning rate α")
		beta           = flag.Float64("beta", 0, "Algorithm 1 damping β")
		explicit       = flag.Bool("explicit", false, "accept used_mem_mb in completion reports")
		walDir         = flag.String("wal-dir", "", "feedback WAL directory (durable journal + rotated snapshots)")
		walGroup       = flag.Bool("wal-group-commit", false, "batch concurrent WAL appends into shared fsyncs (group commit)")
		walGroupWindow = flag.Duration("wal-group-window", 0,
			"how long a group-commit leader lingers for more records before fsyncing (0 = commit immediately; batching still happens under load)")
		walGroupMax = flag.Int("wal-group-max", 64, "max records per group-commit fsync window")
		saveEach    = flag.Duration("save-interval", time.Minute, "WAL rotation (snapshot) period")
		drainFor    = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain deadline")
		shards      = flag.Int("shards", estimate.DefaultShards, "estimator lock stripes (rounded up to a power of two)")
		debug       = flag.String("debug-addr", "", "optional second listener for /debug/pprof/ and /api/v1/metrics")
		wireAddr    = flag.String("wire-addr", "", "optional listener for the swp binary batch protocol")
		route       = flag.String("route", "",
			"run as a stateless swp router over name=addr backends (comma-separated; requires -wire-addr)")
		routePool   = flag.Int("route-pool", 4, "router: pooled connections per backend")
		metricsAddr = flag.String("metrics-addr", "",
			"router: optional listener for the self-healing counters (GET /api/v1/metrics)")
		probeEvery = flag.Duration("probe-interval", time.Second, "router: health-probe period per backend")
		probeWait  = flag.Duration("probe-timeout", time.Second, "router: per-probe deadline")
		follow     = flag.String("follow", "",
			"run as a WAL-shipping follower of the given backend swp address (requires -wal-dir)")
		promoteMisses = flag.Int("promote-misses", 0,
			"follower: consecutive failed polls before the leader is declared dead and the mirror auto-promotes (0 = manual promotion only; requires -wire-addr)")
		promoteWindow = flag.Duration("promote-after", 0,
			"follower: minimum silence since the last leader contact before promotion may fire (0 = misses x poll interval)")
	)
	flag.Parse()
	if *route != "" && *follow != "" {
		log.Fatalf("schedd: -route and -follow are mutually exclusive")
	}
	if *route != "" {
		if *wireAddr == "" {
			log.Fatalf("schedd: -route requires -wire-addr (the router's client-facing listener)")
		}
		if *walDir != "" {
			log.Fatalf("schedd: the router tier is stateless; -wal-dir does not apply")
		}
		runRouter(routerOpts{
			routeSpec:   *route,
			wireAddr:    *wireAddr,
			metricsAddr: *metricsAddr,
			poolSize:    *routePool,
			probeEvery:  *probeEvery,
			probeWait:   *probeWait,
			drainFor:    *drainFor,
		})
		return
	}
	if *follow != "" {
		if *walDir == "" {
			log.Fatalf("schedd: -follow requires -wal-dir (where the mirrored WAL lands)")
		}
		runFollower(followerOpts{
			leaderAddr:    *follow,
			walDir:        *walDir,
			logEach:       *saveEach,
			wireAddr:      *wireAddr,
			promoteMisses: *promoteMisses,
			promoteWindow: *promoteWindow,
			clSpec:        *clSpec,
			alpha:         *alpha,
			beta:          *beta,
			explicit:      *explicit,
			shards:        *shards,
			walOpts: wal.Options{
				GroupCommit: *walGroup,
				GroupWindow: *walGroupWindow,
				GroupMax:    *walGroupMax,
			},
			drainFor: *drainFor,
		})
		return
	}
	if (*walGroup || *walGroupWindow != 0) && *walDir == "" {
		log.Fatalf("schedd: -wal-group-commit/-wal-group-window require -wal-dir")
	}

	cl, err := parseCluster(*clSpec)
	if err != nil {
		log.Fatalf("schedd: %v", err)
	}
	// The estimator is shared between HTTP handler goroutines and the
	// periodic WAL rotation below; the lock-striped wrapper is the only
	// synchronization both sides go through. -shards 1 degenerates to a
	// single stripe, i.e. the old global-mutex behavior.
	est, err := estimate.NewShardedSynchronized(estimate.SuccessiveApproxConfig{
		Alpha: *alpha, Beta: *beta, Round: cl,
	}, *shards)
	if err != nil {
		log.Fatalf("schedd: %v", err)
	}

	var feedbackLog *wal.Log
	if *walDir != "" {
		feedbackLog, err = wal.Open(*walDir, wal.Options{
			GroupCommit: *walGroup,
			GroupWindow: *walGroupWindow,
			GroupMax:    *walGroupMax,
		})
		if err != nil {
			log.Fatalf("schedd: %v", err)
		}
		stats, err := feedbackLog.Recover(est.LoadState, func(r wal.Record) error {
			est.Feedback(r.Outcome())
			return nil
		})
		if err != nil {
			log.Fatalf("schedd: recovering %s: %v", *walDir, err)
		}
		log.Printf("schedd: recovered %d similarity groups from %s (snapshot %d + %d journal records)",
			est.NumGroups(), *walDir, stats.SnapshotSeq, stats.Records)
		if stats.TornBytes > 0 {
			log.Printf("schedd: truncated %d torn byte(s) from the journal tail (corrupt=%v, dropped %d journal(s))",
				stats.TornBytes, stats.Corrupt, stats.DroppedJournals)
		}
	}

	srvCfg := server.Config{
		Cluster:          cl,
		Estimator:        est,
		ExplicitFeedback: *explicit,
	}
	if feedbackLog != nil {
		srvCfg.Journal = feedbackLog
	}
	srv, err := server.New(srvCfg)
	if err != nil {
		log.Fatalf("schedd: %v", err)
	}

	// persist rotates the WAL (snapshot + fresh journal generation) when
	// it is on; without -wal-dir learned state lives only in memory.
	// Rotation goes through srv.Quiesce so it can never run between a
	// completion's journal append and its estimator training — a
	// snapshot taken in that window would miss the record while rotation
	// deletes the journal holding it, losing acked feedback across a
	// crash.
	persist := func() {
		if feedbackLog == nil {
			return
		}
		if err := srv.Quiesce(func() error {
			return feedbackLog.Rotate(est.SaveState)
		}); err != nil {
			log.Printf("schedd: rotating WAL: %v", err)
		}
	}

	// Per-request server timeouts: a stuck client cannot pin a handler
	// goroutine (and its connection) forever. Generous enough for the
	// batch endpoints' largest payloads.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		log.Printf("schedd: %s on %s, estimator %s", cl, *addr, est.Name())
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("schedd: %v", err)
		}
	}()

	var debugSrv *http.Server
	if *debug != "" {
		debugSrv = &http.Server{
			Addr:              *debug,
			Handler:           debugMux(srv),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("schedd: pprof and metrics on %s", *debug)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatalf("schedd: debug listener: %v", err)
			}
		}()
	}

	var wireSrv *server.WireServer
	if *wireAddr != "" {
		ln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatalf("schedd: wire listener: %v", err)
		}
		wireSrv = server.NewWireServer(srv)
		go func() {
			log.Printf("schedd: swp wire protocol on %s", ln.Addr())
			if err := wireSrv.Serve(ln); err != nil {
				log.Fatalf("schedd: wire listener: %v", err)
			}
		}()
	}

	ticker := time.NewTicker(*saveEach)
	defer ticker.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-ticker.C:
			persist()
		case s := <-sig:
			log.Printf("schedd: %v — draining (deadline %v)", s, *drainFor)
			// Order matters: drain first so in-flight completions reach
			// the journal and estimator, then snapshot what they taught.
			res := drain(srv, httpSrv, debugSrv, wireSrv, *drainFor)
			log.Printf("schedd: %s", res)
			persist()
			if feedbackLog != nil {
				if err := feedbackLog.Close(); err != nil {
					log.Printf("schedd: closing WAL: %v", err)
				}
			}
			return
		}
	}
}

// debugMux assembles the -debug-addr handler: the standard pprof
// endpoints (registered explicitly — the daemon never serves
// http.DefaultServeMux) plus the serving counters.
func debugMux(srv *server.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /api/v1/metrics", srv.MetricsHandler())
	return mux
}

// parseCluster parses "512x32,512x24" into pool specs.
func parseCluster(spec string) (*cluster.Cluster, error) {
	var specs []cluster.Spec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		nodes, mem, ok := strings.Cut(part, "x")
		if !ok {
			return nil, fmt.Errorf("bad pool %q (want <nodes>x<memMB>)", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(nodes))
		if err != nil {
			return nil, fmt.Errorf("bad node count in %q: %v", part, err)
		}
		m, err := strconv.ParseFloat(strings.TrimSpace(mem), 64)
		if err != nil {
			return nil, fmt.Errorf("bad memory in %q: %v", part, err)
		}
		specs = append(specs, cluster.Spec{Nodes: n, Mem: units.MemSize(m)})
	}
	return cluster.New(specs...)
}
