package main

import (
	"math"
	"sort"
	"testing"
)

func TestCheckHeatRejectsCorruptCell(t *testing.T) {
	want := heatInput(7)
	wantRes := solveSerial(want)
	got := append([]float64(nil), want...)
	if err := checkHeat(got, want, wantRes, wantRes); err != nil {
		t.Fatalf("identical grids rejected: %v", err)
	}
	cell := (heatN/2)*heatStride + heatN/3
	got[cell] = math.Nextafter(got[cell], math.Inf(1))
	if err := checkHeat(got, want, wantRes, wantRes); err == nil {
		t.Fatal("a grid one ulp off in one cell was accepted")
	}
	got[cell] = want[cell]
	if err := checkHeat(got, want, wantRes*(1+1e-6), wantRes); err == nil {
		t.Fatal("a residual 1e-6 off was accepted")
	}
}

func TestCheckServeRejectsWrongNode(t *testing.T) {
	in := reqInput{a: 17, u: 200, v: 3}
	good := evalPlain(in)
	if err := checkServe(good, in); err != nil {
		t.Fatalf("plain-Go values rejected: %v", err)
	}
	for n := 0; n < nNodes; n++ {
		bad := good
		bad[n] ^= 1
		if err := checkServe(bad, in); err == nil {
			t.Errorf("a wrong %s value was accepted", nodeNames[n])
		}
	}
}

// distinct returns n distinct samples 1..n.
func distinct(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples []int64
		wantP90 bool
	}{
		{"39 samples: median only", distinct(39), false},
		{"40 samples: only four above p90", distinct(40), false},
		{"99 samples: nine above p90", distinct(99), false},
		{"100 samples: ten above p90", distinct(100), true},
		{"100 equal samples: none above p90", make([]int64, 100), false},
	} {
		s := histOf(tc.samples).summary()
		if s.HasP90 != tc.wantP90 {
			t.Errorf("%s: p90 reported = %v, want %v", tc.name, s.HasP90, tc.wantP90)
		}
		if s.N != len(tc.samples) {
			t.Errorf("%s: N = %d", tc.name, s.N)
		}
	}
	s := histOf(distinct(101)).summary()
	if s.P50 != 51 || s.P90 != 91 {
		t.Errorf("101 samples: p50 %v p90 %v, want 51 and 91", s.P50, s.P90)
	}
}

func TestHistPrecision(t *testing.T) {
	for _, v := range []int64{0, 1, 1023, 1024, 1025, 4097, 12_345, 987_654_321, 1 << 40, math.MaxInt64} {
		got := valueOf(bucketOf(v))
		if math.Abs(got-float64(v)) > float64(v)/1024 {
			t.Errorf("value %d reads back as %v", v, got)
		}
	}
	prev := -1
	for v := int64(0); v < 1<<16; v++ {
		if b := bucketOf(v); b < prev {
			t.Fatalf("bucketOf not monotone at %d", v)
		} else {
			prev = b
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) on the same data.
	for _, tc := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
	} {
		d := append([]float64(nil), tc.data...)
		sort.Float64s(d)
		if got := quartiles(d); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.data, got, tc.want)
		}
	}
}

func TestWorkloadOpsAreCorrect(t *testing.T) {
	rt := newRuntime()
	defer rt.Close()
	for _, setup := range []func() (instance, error){
		func() (instance, error) { return setupHeat(rt, 3) },
		func() (instance, error) { return setupServe(rt, 3) },
	} {
		in, err := setup()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			if _, err := in.op(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if live := rt.LiveTasks(); live != 0 {
		t.Fatalf("%d tasks live after the ops", live)
	}
}

func TestTracedOpsExplainLatency(t *testing.T) {
	rt := newRuntime()
	defer rt.Close()
	in, err := setupServe(rt, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(servePreds(), 50)
	in.trace(tr)
	for k := 0; !tr.full(); k++ {
		if _, err := in.op(k); err != nil {
			t.Fatal(err)
		}
	}
	b := tr.analyze()
	for k, lat := range b.latency {
		if b.submit[k] < 0 || b.complete[k] < 0 || b.unexplain[k] < 0 || b.unexplain[k] > lat {
			t.Fatalf("op %d: latency %d, submit %d, complete %d, unexplained %d",
				k, lat, b.submit[k], b.complete[k], b.unexplain[k])
		}
	}
	if len(b.body) != 50*nNodes || len(b.readyWait) != 50*(nNodes-3) {
		t.Fatalf("%d bodies and %d ready waits from 50 requests", len(b.body), len(b.readyWait))
	}
}

func TestWakeProbeTerminates(t *testing.T) {
	// A probe whose recheck ignored the wake stamp lost wakes within a
	// few thousand rounds; several slices cover that many.
	for i := 0; i < 5; i++ {
		if p := probeWake(nproc()); p.calls == 0 {
			t.Fatal("no wake round trips completed")
		}
	}
}
