package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// span is one recorded interval on the benchmark's clock. Span 0 of an
// op is the op itself (the call into Do or Run); span i > 0 is task
// body i, and cause is the span that released it: its latest-ending
// predecessor, or 0 for a source task released by the op.
type span struct {
	start, end int64
	cause      int32
}

// tracer keeps the spans of up to maxOps ops in memory. One op's spans
// are written only while that op is in flight, by its task bodies and
// its client, so recording takes no lock.
type tracer struct {
	width  int       // spans per op
	preds  [][]int32 // static predecessors of each span id
	spans  []span
	ops    int
	maxOps int
}

func newTracer(preds [][]int32, maxOps int) *tracer {
	return &tracer{width: len(preds), preds: preds, spans: make([]span, len(preds)*maxOps), maxOps: maxOps}
}

// next returns the span slots of the next op, or nil once full.
func (t *tracer) next() []span {
	if t.ops == t.maxOps {
		return nil
	}
	t.ops++
	return t.spans[(t.ops-1)*t.width : t.ops*t.width]
}

func (t *tracer) full() bool { return t.ops == t.maxOps }

// record stores body span id of op and names its cause. Every
// predecessor finished before this body started, so its end is set.
func (t *tracer) record(op []span, id int32, start, end int64) {
	var cause int32
	var last int64
	for _, p := range t.preds[id] {
		if e := op[p].end; e > last {
			last, cause = e, p
		}
	}
	op[id] = span{start: start, end: end, cause: cause}
}

// breakdown is the trace-derived per-layer view of the traced ops.
type breakdown struct {
	body       []int64 // body self time, every task
	readyWait  []int64 // start minus the cause's end, every non-source task
	submit     []int64 // op start to the first source body start
	complete   []int64 // sink body end to the op's return
	unexplain  []int64 // op latency minus the critical-path sum
	latency    []int64
	bodyTotal  int64
	firstStart int64
	lastEnd    int64
}

// analyze derives self times and each op's critical-path breakdown.
// A body records no child spans, so its self time is its duration. The
// critical path runs back from the latest-ending body along causes to a
// source; its sum is submit + bodies + ready waits along it + complete,
// so what stays unexplained is the time between the first source start
// and the path's own source start.
func (t *tracer) analyze() breakdown {
	var b breakdown
	for k := 0; k < t.ops; k++ {
		op := t.spans[k*t.width : (k+1)*t.width]
		if k == 0 || op[0].start < b.firstStart {
			b.firstStart = op[0].start
		}
		if op[0].end > b.lastEnd {
			b.lastEnd = op[0].end
		}
		firstSrc, sink := int64(-1), 1
		for id := 1; id < t.width; id++ {
			s := op[id]
			d := s.end - s.start
			b.body = append(b.body, d)
			b.bodyTotal += d
			if s.cause == 0 {
				if firstSrc < 0 || s.start < firstSrc {
					firstSrc = s.start
				}
			} else {
				b.readyWait = append(b.readyWait, s.start-op[s.cause].end)
			}
			if s.end > op[sink].end {
				sink = id
			}
		}
		lat := op[0].end - op[0].start
		submit := firstSrc - op[0].start
		complete := op[0].end - op[sink].end
		sum := submit + complete
		for id := int32(sink); ; {
			s := op[id]
			sum += s.end - s.start
			if s.cause == 0 {
				break
			}
			sum += s.start - op[s.cause].end
			id = s.cause
		}
		b.latency = append(b.latency, lat)
		b.submit = append(b.submit, submit)
		b.complete = append(b.complete, complete)
		b.unexplain = append(b.unexplain, lat-sum)
	}
	return b
}

// write stores every recorded span as CSV: op, span, cause, start and
// end in nanoseconds on the benchmark's clock.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,span,cause,start_ns,end_ns")
	for k := 0; k < t.ops; k++ {
		for id := 0; id < t.width; id++ {
			s := t.spans[k*t.width+id]
			fmt.Fprintf(w, "%d,%d,%d,%d,%d\n", k, id, s.cause, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
