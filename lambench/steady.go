package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// The steadiness command runs each workload repeatedly, every run a fresh
// process with its own seed, and prints each end-to-end metric's median,
// quartiles and spread — the interquartile distance as a share of the
// median — against the metric's bound in BENCHMARK.json. A metric whose
// spread exceeds its bound is named as straying.
//
//	lambench steady -runs 10 -workloads describe,complete,execute

// benchmarkFile names the metrics, their bounds and the run length; the
// command runs from the directory that holds it.
const benchmarkFile = "BENCHMARK.json"

type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func steadyMain(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	firstSeed := fs.Int64("first-seed", 1, "seed of the first run; later runs count up from it")
	workloads := fs.String("workloads", strings.Join(workloadNames(), ","), "comma-separated workloads")
	verbose := fs.Bool("v", false, "also print every run's value, in seed order")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 2 {
		return fmt.Errorf("-runs must be at least 2")
	}
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return err
	}
	var bf benchmarkSpec
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	seconds := bf.RunSeconds
	self, err := os.Executable()
	if err != nil {
		return err
	}
	stray := 0
	for _, w := range strings.Split(*workloads, ",") {
		values := map[string][]float64{}
		var shares []string
		for i := 0; i < *runs; i++ {
			seed := *firstSeed + int64(i)
			res, err := runChild(self, w, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect output", w, seed)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", w, seed)
		}
		fmt.Printf("\n%s: %d runs, seeds %d..%d, %ds each; failed/attempted %s\n",
			w, *runs, *firstSeed, *firstSeed+int64(*runs)-1, seconds, strings.Join(shares, " "))
		fmt.Printf("%-16s %12s %12s %12s %8s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "")
		for _, e := range bf.EndToEnd {
			xs := values[e.Name]
			if len(xs) != *runs {
				return fmt.Errorf("%s: metric %s missing from some runs", w, e.Name)
			}
			q1, q2, q3 := quartiles(xs)
			sp := spread(xs)
			verdict := "ok"
			switch {
			case sp > e.Bound:
				verdict = "STRAYS"
				stray++
			case sp > e.Bound/3:
				verdict = "above a third of its bound"
			}
			fmt.Printf("%-16s %12.5g %12.5g %12.5g %8.4f %8.3f  %s\n", e.Name, q1, q2, q3, sp, e.Bound, verdict)
			if *verbose {
				fmt.Printf("%16s %s\n", "", formatValues(xs))
			}
		}
		names := make([]string, 0, len(values))
		for n := range values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if !hasMetric(bf, n) {
				return fmt.Errorf("%s: metric %s is not in %s", w, n, benchmarkFile)
			}
		}
	}
	if stray > 0 {
		return fmt.Errorf("%d metric(s) stray beyond their bound", stray)
	}
	return nil
}

func formatValues(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return strings.Join(parts, " ")
}

func hasMetric(bf benchmarkSpec, name string) bool {
	for _, e := range bf.EndToEnd {
		if e.Name == name {
			return true
		}
	}
	return false
}

// runChild runs one benchmark process and parses its result line.
func runChild(self, workload string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("parsing result: %w", err)
	}
	return res, nil
}
