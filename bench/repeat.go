package main

import "fmt"

// bound is every end-to-end metric's regression bound in BENCHMARK.json:
// the contract's maximum. The sandbox's noise comes and goes (six processes
// on two virtual cores, a shared disk): the same metric's spread over ten
// seeds was 0.03 in one study and 0.12 in the next, so a bound fitted to one
// study would reject the benchmark in another. A spread above a third of the
// bound is called out: that workload needs more work per run.
const bound = 0.25

// repeatability runs every workload n times, run i at seed+i as the
// driver's acceptance procedure does, and prints each end-to-end metric's
// median, quartiles and relative spread per workload. It writes nothing:
// BENCHMARK.json is kept by hand and checked against spec.go and bound by
// TestBenchmarkFileMatchesTheTables.
func (s *session) repeatability(n int, seed uint64, seconds int) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs to measure a spread")
	}
	for _, w := range workloads {
		series := map[string][]float64{}
		for i := 0; i < n; i++ {
			o, err := s.runWorkload(w.scaled(seconds), seed+uint64(i), false)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.Name, i, err)
			}
			if len(o.checks) > 0 {
				return fmt.Errorf("%s run %d failed its output checks: %v", w.Name, i, o.checks)
			}
			for _, d := range endToEnd {
				series[d.Name] = append(series[d.Name], o.res[d.Name].Value)
			}
		}
		fmt.Printf("repeatability of %s over %d runs (seeds %d..%d):\n", w.Name, n, seed, seed+uint64(n)-1)
		for _, d := range endToEnd {
			v := series[d.Name]
			med := median(v)
			q1, q3 := quartiles(v)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			note := ""
			switch {
			case spread > bound:
				note = "  TOO UNSTEADY to bound: raise this workload's size in spec.go"
			case spread > bound/3:
				note = "  above a third of the bound"
			}
			fmt.Printf("  %-18s median %12.6g %-4s q1 %12.6g q3 %12.6g spread %.3f%s\n", d.Name, med, d.Unit, q1, q3, spread, note)
			fmt.Printf("  %-18s runs   %.6g\n", "", v)
		}
	}
	return nil
}
