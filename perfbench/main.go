// Command perfbench is the repository's end-to-end benchmark. It drives
// the public façade (repro.New with WithWorkers(nproc), GOMAXPROCS =
// nproc, one client goroutine) through three workloads and prints, as
// its last line, one JSON object with the end-to-end metrics (--trace 0)
// or the per-layer ledger (--trace 1). Every number is taken from
// outside the runtime: the benchmark times its own calls and its own
// task bodies. See README.md for the workloads, metrics and noise.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro"
)

// exitDeadline bounds a run of the given length, so a hung op fails
// the run instead of the caller's patience. The margin covers set-up,
// the traced run's heat reference solves and its probes.
func exitDeadline(seconds int) time.Duration {
	return 2*time.Duration(seconds)*time.Second + 100*time.Second
}

// minOps is the floor on timed ops: with 110 samples at least ten lie
// above p90, so latency_p90_us is always reportable.
const minOps = 110

// epoch anchors the benchmark's monotonic clock.
var epoch = time.Now()

// now returns monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// workload is one benchmark input mix.
type workload struct {
	name string
	// gap paces ops on an absolute schedule; 0 is a closed loop.
	gap time.Duration
	// setupReps is how many times set-up is repeated for setup_s.
	setupReps int
	setup     func(rt *repro.Runtime, seed int64) (instance, error)
	// preds gives the static predecessors of each span id of an op,
	// and traceOps how many ops the traced phase keeps spans for.
	preds    func() [][]int32
	traceOps int
}

// instance is a workload bound to a runtime, ready for timed ops.
type instance interface {
	// tasksPerOp is the number of benchmark task bodies one op runs.
	tasksPerOp() int
	// op runs op k and returns its latency. It checks the op's output
	// after the timed span; a wrong output is a *wrongOutput error.
	op(k int) (time.Duration, error)
	// trace turns span recording on (non-nil) or off (nil).
	trace(tr *tracer)
}

// wrongOutput marks an op whose output failed its check.
type wrongOutput struct{ err error }

func (w *wrongOutput) Error() string { return "wrong output: " + w.err.Error() }

var workloads = []workload{
	{
		name:      "heat-fine",
		setupReps: 5,
		setup:     setupHeat,
		preds:     heatPreds,
		traceOps:  24,
	},
	{
		name:      "serve-saturated",
		setupReps: 9,
		setup:     setupServe,
		preds:     servePreds,
		traceOps:  60000,
	},
	{
		name:      "serve-sparse",
		gap:       2 * time.Millisecond,
		setupReps: 9,
		setup:     setupServe,
		preds:     servePreds,
		traceOps:  60000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func nproc() int { return runtime.NumCPU() }

// newRuntime builds the runtime every workload runs on: façade
// defaults apart from the worker count.
func newRuntime() *repro.Runtime { return repro.New(repro.WithWorkers(nproc())) }

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead")
	spans := flag.String("spans", "", "file the traced run writes its spans to")
	steady := flag.Int("steady", 0, "run every workload this many times and print the spread of each metric")
	flag.Parse()
	runtime.GOMAXPROCS(nproc())
	if *steady > 0 {
		if err := runSteady(*steady, *seed, *seconds, *traced); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	limit := exitDeadline(*seconds)
	time.AfterFunc(limit, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", limit)
		os.Exit(3)
	})
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(w, *seed, time.Duration(*seconds)*time.Second, *spans)
	} else {
		res, err = runMeasured(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) print() {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// cpuTime is the process's user+sys CPU time from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: getrusage:", err)
		os.Exit(1)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler reads the resident set (VmRSS of /proc/self/status)
// between ops, at most every rssEvery, into a preallocated buffer so
// sampling allocates nothing. The peak is not reported: on heat-fine
// the resident set settles at about 38 MB in some runs and 49 MB in
// others, by the phase of the garbage collector's cycles against the
// solves, so any high percentile of it moves by a quarter between sets
// of runs. Its p10, the floor it keeps returning to, spread 5%.
type rssSampler struct {
	f    *os.File
	buf  [4096]byte
	last time.Time
	h    *hist
	err  error
}

const rssEvery = 10 * time.Millisecond

func newRSSSampler() *rssSampler {
	r := &rssSampler{h: newHist()}
	r.f, r.err = os.Open("/proc/self/status")
	return r
}

func (r *rssSampler) sample(t time.Time) {
	if r.err != nil || t.Sub(r.last) < rssEvery {
		return
	}
	r.last = t
	n, err := r.f.ReadAt(r.buf[:], 0)
	if err != nil && err != io.EOF {
		r.err = err
		return
	}
	b := r.buf[:n]
	i := bytes.Index(b, []byte("VmRSS:"))
	if i < 0 {
		r.err = fmt.Errorf("no VmRSS in /proc/self/status")
		return
	}
	kb := int64(0)
	for _, c := range b[i+len("VmRSS:"):] {
		if c >= '0' && c <= '9' {
			kb = kb*10 + int64(c-'0')
		} else if c == '\n' || kb > 0 && c == ' ' {
			break
		}
	}
	r.h.add(kb << 10)
}

func (r *rssSampler) close() {
	if r.f != nil {
		r.f.Close()
	}
}

// p10 returns the nearest-rank p10 resident set in bytes. The
// resident set moves in page steps, so most samples tie, and the tail
// rule of latencies does not apply to it.
func (r *rssSampler) p10() (float64, error) {
	if r.err != nil {
		return 0, fmt.Errorf("sampling the resident set: %w", r.err)
	}
	if r.h.n == 0 {
		return 0, fmt.Errorf("no resident-set samples")
	}
	return valueOf(r.h.rankBucket(0.1)), nil
}

// phase is what one timed loop of ops observed.
type phase struct {
	ops, failed int
	wrong       bool
	lat         *hist // per-op latency, ns
	late        *hist // paced loops: send time minus due time, ns
	rss         *rssSampler
	wall        time.Duration
	cpu         time.Duration
	firstErr    error
}

// opTimeout is how long one op may take before it counts as failed.
const opTimeout = time.Second

// newPhase allocates a phase's histograms and sampler, so that a caller
// reading heap counters around run can take them after this set-up.
func newPhase() *phase {
	return &phase{lat: newHist(), late: newHist(), rss: newRSSSampler()}
}

// run runs ops from, from+1, ... for d and at least atLeast ops,
// closed-loop or on w's absolute schedule, and stops early once stop
// reports true.
func (p *phase) run(w workload, in instance, from int, d time.Duration, atLeast int, stop func() bool) {
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for k := from; ; k++ {
		if p.ops >= atLeast && !time.Now().Before(deadline) || stop != nil && stop() {
			break
		}
		if w.gap > 0 {
			due := start.Add(time.Duration(p.ops) * w.gap)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			p.late.add(int64(time.Since(due)))
		}
		lat, err := in.op(k)
		p.ops++
		p.rss.sample(time.Now())
		if err == nil && lat > opTimeout {
			err = fmt.Errorf("op took %v, over the %v limit", lat, opTimeout)
		}
		if err != nil {
			p.failed++
			if _, ok := err.(*wrongOutput); ok {
				p.wrong = true
			}
			if p.firstErr == nil {
				p.firstErr = err
			}
			continue
		}
		p.lat.add(int64(lat))
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.rss.close()
}

// report logs a phase's failures to standard error.
func (p *phase) report(name string) {
	if p.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed; first: %v\n", name, p.failed, p.ops, p.firstErr)
	}
}

// runMeasured is the untraced run: set-up repeated setupReps times
// (the last instance is kept), then one timed phase.
func runMeasured(w workload, seed int64, d time.Duration) (result, error) {
	var res result
	setups := make([]float64, 0, w.setupReps)
	var rt *repro.Runtime
	var in instance
	for i := 0; i < w.setupReps; i++ {
		if rt != nil {
			rt.Close()
		}
		t0 := time.Now()
		rt = newRuntime()
		var err error
		in, err = w.setup(rt, seed)
		if err != nil {
			rt.Close()
			return res, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p := newPhase()
	p.run(w, in, 0, d, minOps, nil)
	live := rt.LiveTasks()
	rt.Close()
	p.report(w.name)
	if live != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d tasks still live after the timed phase\n", live)
	}
	res.Attempted = p.ops
	res.Failed = p.failed
	res.Correct = live == 0 && !p.wrong
	rss, err := p.rss.p10()
	if err != nil {
		return res, err
	}
	s := p.lat.summary()
	if !s.HasP90 {
		return res, fmt.Errorf("%s: %d samples leave fewer than %d above p90", w.name, s.N, minTailSamples)
	}
	done := float64(p.ops - p.failed)
	tasks := done * float64(in.tasksPerOp())
	res.set("setup_s", median(setups), "s")
	res.set("tasks_per_s", tasks/p.wall.Seconds(), "1/s")
	res.set("ops_per_s", done/p.wall.Seconds(), "1/s")
	res.set("latency_p50_us", s.P50/1e3, "us")
	res.set("latency_p90_us", s.P90/1e3, "us")
	res.set("cpu_ns_per_task", float64(p.cpu.Nanoseconds())/tasks, "ns")
	res.set("rss_p10_mb", rss/(1<<20), "MB")
	fmt.Printf("samples %d, timed phase %.3fs\n", s.N, p.wall.Seconds())
	return res, nil
}
