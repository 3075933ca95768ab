package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady is the steadiness check: every workload runs k
// times in child processes, on seeds base+1 .. base+k, and each metric
// is printed with its median, quartiles, interquartile spread and
// largest spread relative to the median — the figures the bounds in
// BENCHMARK.json are set from.
func runSteady(k int, base int64, seconds, traced int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		name := w.name
		values := map[string][]float64{}
		units := map[string]string{}
		failShare := map[float64]bool{}
		for i := 1; i <= k; i++ {
			seed := base + int64(i)
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: outputs incorrect", name, seed)
			}
			failShare[float64(res.Failed)/float64(res.Attempted)] = true
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
				units[m] = v.Unit
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: attempted %d failed %d\n", name, seed, res.Attempted, res.Failed)
		}
		fmt.Printf("== %s: %d runs of %ds\n", name, k, seconds)
		fmt.Printf("%-32s %-6s %14s %14s %14s %8s %8s  %s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "max/med", "runs/med")
		metrics := make([]string, 0, len(values))
		for m := range values {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			v := values[m]
			inOrder := append([]float64(nil), v...)
			med := median(v) // sorts v
			q := quartiles(v)
			rel := make([]string, len(v))
			for i, x := range inOrder {
				rel[i] = strconv.FormatFloat(x/med, 'f', 3, 64)
			}
			fmt.Printf("%-32s %-6s %14.4f %14.4f %14.4f %8.4f %8.4f  %s\n", m, units[m], med, q[0], q[2],
				relSpread(q[2]-q[0], med), relSpread(v[len(v)-1]-v[0], med), strings.Join(rel, " "))
		}
		fmt.Printf("distinct failed/attempted shares: %d\n", len(failShare))
	}
	return nil
}

func relSpread(d, med float64) float64 {
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(d / med)
}

// lastResult parses the last non-empty line of a run's output.
func lastResult(out []byte) (result, error) {
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) == 0 {
		return res, fmt.Errorf("no output")
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("parsing the result line: %w", err)
	}
	return res, nil
}
