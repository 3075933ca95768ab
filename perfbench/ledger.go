package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro"
)

// heatSerialReps and heatParallelReps size the heat reference solves
// of the traced run.
const (
	heatSerialReps   = 9
	heatParallelReps = 5
)

// runTraced is the per-layer ledger. On one runtime it runs an
// untraced phase (counts read through public functions), a traced
// phase (spans from the benchmark's own bodies and calls), the heat
// reference solves and the layer probes.
func runTraced(w workload, seed int64, d time.Duration, spansPath string) (result, error) {
	var res result
	rt := newRuntime()
	defer rt.Close()
	in, err := w.setup(rt, seed)
	if err != nil {
		return res, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	slice := d * 2 / 5

	// The phase is built before the first MemStats read, so the heap
	// deltas hold the ops' allocations and not the benchmark's own
	// histograms.
	pu := newPhase()
	var m0, m1 runtime.MemStats
	st0 := rt.Stats()
	runtime.ReadMemStats(&m0)
	pu.run(w, in, 0, slice, minOps, nil)
	runtime.ReadMemStats(&m1)
	st1 := rt.Stats()
	pu.report(w.name + " untraced")

	tr := newTracer(w.preds(), w.traceOps)
	in.trace(tr)
	pt := newPhase()
	pt.run(w, in, pu.ops, slice, 1, tr.full)
	in.trace(nil)
	pt.report(w.name + " traced")

	res.Attempted = pu.ops + pt.ops
	res.Failed = pu.failed + pt.failed
	res.Correct = !pu.wrong && !pt.wrong

	ops := float64(pu.ops)
	tasks := ops * float64(in.tasksPerOp())
	res.set("core.parks_per_op", float64(st1.Parks-st0.Parks)/ops, "count")
	res.set("core.wakes_per_op", float64(st1.Wakes-st0.Wakes)/ops, "count")
	res.set("heap.allocs_per_task", float64(m1.Mallocs-m0.Mallocs)/tasks, "count")
	res.set("heap.bytes_per_task", float64(m1.TotalAlloc-m0.TotalAlloc)/tasks, "B")
	res.set("client.lateness_us_p50", pu.late.summary().P50/1e3, "us")

	b := tr.analyze()
	res.set("trace.ops", float64(tr.ops), "count")
	res.set("trace.body_ns_p50", histOf(b.body).summary().P50, "ns")
	rw := histOf(b.readyWait).summary()
	res.set("trace.ready_wait_ns_p50", rw.P50, "ns")
	res.set("trace.ready_wait_ns_p90", rw.P90, "ns")
	res.set("trace.submit_ns_p50", histOf(b.submit).summary().P50, "ns")
	res.set("trace.complete_ns_p50", histOf(b.complete).summary().P50, "ns")
	res.set("trace.unexplained_ns_p50", histOf(b.unexplain).summary().P50, "ns")
	res.set("trace.latency_ns_p50", histOf(b.latency).summary().P50, "ns")
	res.set("trace.busy_frac", float64(b.bodyTotal)/(float64(nproc())*float64(b.lastEnd-b.firstStart)), "ratio")
	untracedRate := float64(pu.ops) / pu.wall.Seconds()
	tracedRate := float64(pt.ops) / pt.wall.Seconds()
	res.set("trace.overhead_pct", 100*(untracedRate-tracedRate)/untracedRate, "%")
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
	}

	parallelMs, err := heatParallelMs(rt, seed)
	if err != nil {
		return res, err
	}
	serialMs := heatSerialMs(seed)
	res.set("heat.serial_solve_ms", serialMs, "ms")
	res.set("heat.efficiency", serialMs/(parallelMs*float64(nproc())), "ratio")

	if live := rt.LiveTasks(); live != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d tasks still live after the traced run\n", live)
		res.Correct = false
	}
	if err := runProbes(&res); err != nil {
		return res, err
	}
	return res, nil
}

// heatSerialMs is the median time of a plain single-threaded solve of
// the heat-fine problem, without the runtime.
func heatSerialMs(seed int64) float64 {
	input := heatInput(seed)
	g := make([]float64, len(input))
	ms := make([]float64, heatSerialReps)
	for i := range ms {
		copy(g, input)
		t0 := time.Now()
		solveSerial(g)
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(ms)
}

// heatParallelMs is the median runtime solve of the heat-fine problem
// on rt, measured apart from the workload's phases so heat.efficiency
// means the same on every workload.
func heatParallelMs(rt *repro.Runtime, seed int64) (float64, error) {
	in, err := setupHeat(rt, seed)
	if err != nil {
		return 0, fmt.Errorf("heat reference: %w", err)
	}
	ms := make([]float64, heatParallelReps)
	for i := range ms {
		lat, err := in.op(i)
		if err != nil {
			return 0, fmt.Errorf("heat reference: %w", err)
		}
		ms[i] = float64(lat.Nanoseconds()) / 1e6
	}
	return median(ms), nil
}
