// Command lambench is Laminar's end-to-end benchmark. It starts a
// deployment through the public façade, drives it over loopback HTTP from
// one closed-loop client, checks every answer against its own
// computation, and prints one JSON result line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the
// directory the benchmark runs from.
const buildDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steadyMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lambench steady:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runMain(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "lambench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lambench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func runMain(args []string) (result, error) {
	fs := flag.NewFlagSet("lambench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the corpus, queries and inputs are drawn from")
	seconds := fs.Int("seconds", 20, "length of the timed main phase in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return result{}, err
	}
	sp, ok := specs[*workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return result{}, fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		return result{}, fmt.Errorf("-seconds must be at least 1")
	}
	dir, err := os.MkdirTemp(mustMkdir(buildDir), "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	b := newBench(sp, *seed, time.Duration(*seconds)*time.Second, dir)
	b.spanDir = filepath.Join(buildDir, "spans")
	return b.execute(*trace == 1)
}

func mustMkdir(d string) string {
	if err := os.MkdirAll(d, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "lambench:", err)
		os.Exit(1)
	}
	return d
}

func workloadNames() []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
