// Command bench is the repository's one benchmark: it drives the
// trace-driven simulator in-process and the real cmd/schedd binary in its
// deployed topology from a single generator, checks what they produce, and
// reports end-to-end metrics from untraced runs and a per-layer cost ledger
// from a traced one. README.md documents every metric and workload.
//
//	go run -C bench .                                   every workload, traced
//	go run -C bench . -workload serve-direct-single     one workload, end to end
//	go run -C bench . -workload sim-fcfs-sweep -trace 1 one workload's ledger
//	go run -C bench . -repeat 5                         each metric's spread over 5 seeds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// outcome is one workload run reduced to what the result line carries.
type outcome struct {
	res               results
	checks            checks
	attempted, failed int
}

// session holds what every run of one process shares.
type session struct {
	root, benchDir, outDir string
	scheddBin              string
	buildS                 float64
	updateGolden           bool
}

// schedd builds cmd/schedd on first use.
func (s *session) schedd() (string, error) {
	if s.scheddBin != "" {
		return s.scheddBin, nil
	}
	bin, took, err := buildSchedd(s.root, s.outDir)
	if err != nil {
		return "", err
	}
	s.scheddBin, s.buildS = bin, took.Seconds()
	return bin, nil
}

// runWorkload runs w once at seed. With traced set it follows the untraced
// run with the traced replay of the same inputs, adding the ledger.
func (s *session) runWorkload(w workload, seed uint64, traced bool) (*outcome, error) {
	fmt.Printf("workload %s (seed %d): %s\n", w.Name, seed, w.Why)
	if w.Topo == topoNone {
		run, err := runSim(w, seed, s.benchDir, s.updateGolden)
		if err != nil {
			return nil, err
		}
		if traced {
			if err := traceSim(w, run, s.outDir); err != nil {
				return nil, err
			}
		}
		return &outcome{run.res, run.checks, run.attempted, run.failed}, nil
	}
	bin, err := s.schedd()
	if err != nil {
		return nil, err
	}
	run, err := runServe(w, seed, bin, s.outDir)
	if err != nil {
		return nil, err
	}
	run.res.set("bench.build_s", s.buildS, 1)
	if traced {
		if err := traceServe(w, run, s.outDir); err != nil {
			return nil, err
		}
	}
	return &outcome{run.res, run.checks, run.attempted, run.failed}, nil
}

// resultLine is the benchmark contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders o over defs. Every end-to-end metric must be present; a
// per-layer metric the workload does not exercise reads 0.
func (o *outcome) line(defs []metricDef, required bool) (resultLine, error) {
	out := resultLine{Correct: len(o.checks) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		s, ok := o.res[d.Name]
		if !ok && required {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return out, fmt.Errorf("metric %s is %v", d.Name, s.Value)
		}
		out.Metrics[d.Name] = metricValue{s.Value, d.Unit}
	}
	return out, nil
}

func (o *outcome) report(traced bool) {
	fmt.Println(" end-to-end (untraced run):")
	o.res.print(endToEnd)
	fmt.Println(" per-layer:")
	o.res.print(perLayer)
	if !traced {
		fmt.Println("  (traced-run layers not measured; rerun with -trace 1)")
	}
	for _, c := range o.checks {
		fmt.Printf(" CHECK FAILED: %s\n", c)
	}
	if len(o.checks) == 0 {
		fmt.Println(" all output checks passed")
	}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all of them, traced)")
		seed    = flag.Uint64("seed", 1, "input seed: trace seed N, simulator seed N+6")
		seconds = flag.Int("seconds", nominalSeconds, "size the fixed work for about this many seconds of measuring")
		traced  = flag.Int("trace", 0, "with -workload: 1 adds the traced replay and prints the per-layer metrics in the result line")
		repeat  = flag.Int("repeat", 0, "run every workload N times at seeds seed..seed+N-1 and print each end-to-end metric's median, quartiles and spread")
		update  = flag.Bool("update-golden", false, "rewrite golden.json from this run's sim workloads (seed 1 only)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] | -repeat n")
		return 2
	}
	root, benchDir, err := dirs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	s := &session{root: root, benchDir: benchDir, outDir: filepath.Join(benchDir, "out"), updateGolden: *update}
	if err := os.MkdirAll(s.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cleaner.onSignal()
	defer cleaner.cleanup()

	env, err := stampEnv(root, s.outDir, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	env.print()

	if *repeat > 0 {
		if err := s.repeatability(*repeat, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	allTraced := *name == "" || *traced == 1
	code := 0
	var last *outcome
	for _, w := range selected {
		begin := time.Now()
		o, err := s.runWorkload(w.scaled(*seconds), *seed, allTraced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		o.res.set("wal.fsync_probe_us", env.FsyncProbeUS, 21)
		if bad := o.res.unknown(); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: metrics missing from the tables in spec.go: %v\n", w.Name, bad)
			return 1
		}
		o.report(allTraced)
		fmt.Printf(" %s took %.1fs in all\n", w.Name, time.Since(begin).Seconds())
		if len(o.checks) > 0 {
			code = 1
		}
		last = o
	}
	if *name != "" {
		defs, required := endToEnd, true
		if *traced == 1 {
			defs, required = perLayer, false
		}
		line, err := last.line(defs, required)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		raw, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(raw))
	}
	return code
}
