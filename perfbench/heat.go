package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro"
)

// The heat-fine problem: the paper's Gauss-Seidel heat benchmark (§6.1)
// at fine grain. A 512² interior in 8×8 tiles over 4 sweeps is 4,096
// tiles × 4 = 16,384 tasks per solve, each declaring InOut on its own
// tile and In on up to four neighbours (the wavefront: left/top from
// this sweep, right/bottom from the previous one).
const (
	heatN      = 512
	heatBlock  = 8
	heatSweeps = 4
	heatNB     = heatN / heatBlock
	heatTiles  = heatNB * heatNB
	heatTasks  = heatTiles * heatSweeps
	heatStride = heatN + 2
	// heatWarmup solves run during set-up, before the first timed op.
	heatWarmup = 2
)

// heatInput is the seed-derived starting grid (boundary included).
func heatInput(seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	g := make([]float64, heatStride*heatStride)
	for i := 0; i < heatStride; i++ {
		for j := 0; j < heatStride; j++ {
			switch {
			case i == 0:
				g[i*heatStride+j] = 100 * r.Float64()
			case i == heatStride-1 || j == 0 || j == heatStride-1:
				g[i*heatStride+j] = 50 * r.Float64()
			default:
				g[i*heatStride+j] = r.Float64()
			}
		}
	}
	return g
}

// sweepTile performs the Gauss-Seidel update of tile (bi, bj) in place
// and returns its squared-change residual. Both the runtime solve and
// the serial reference call it.
func sweepTile(g []float64, bi, bj int) float64 {
	res := 0.0
	for i := bi*heatBlock + 1; i <= (bi+1)*heatBlock; i++ {
		row := i * heatStride
		for j := bj*heatBlock + 1; j <= (bj+1)*heatBlock; j++ {
			old := g[row+j]
			v := 0.25 * (g[row+j-1] + g[row+j+1] + g[row-heatStride+j] + g[row+heatStride+j])
			g[row+j] = v
			d := v - old
			res += d * d
		}
	}
	return res
}

// solveSerial runs the whole problem on one goroutine without the
// runtime, in tile order, and returns the last sweep's residual summed
// in tile order — the same order the runtime solve folds it in.
func solveSerial(g []float64) float64 {
	var tileRes [heatTiles]float64
	for s := 0; s < heatSweeps; s++ {
		for bi := 0; bi < heatNB; bi++ {
			for bj := 0; bj < heatNB; bj++ {
				tileRes[bi*heatNB+bj] = sweepTile(g, bi, bj)
			}
		}
	}
	return foldResidual(tileRes[:])
}

func foldResidual(tileRes []float64) float64 {
	sum := 0.0
	for _, r := range tileRes {
		sum += r
	}
	return sum
}

// checkHeat compares a solved grid bit for bit with the serial one and
// the residual within 1e-9 relative.
func checkHeat(got, want []float64, gotRes, wantRes float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("heat: grid has %d cells, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("heat: cell (%d,%d) = %v, serial %v", i/heatStride, i%heatStride, got[i], want[i])
		}
	}
	if math.Abs(gotRes-wantRes) > 1e-9*math.Abs(wantRes) {
		return fmt.Errorf("heat: residual %v, serial %v", gotRes, wantRes)
	}
	return nil
}

// heat is the heat-fine instance: the input, the serial answer, and
// the task bodies and access lists of one solve, built once.
type heat struct {
	rt      *repro.Runtime
	input   []float64
	want    []float64
	wantRes float64
	grid    []float64
	tileRes []float64
	specs   [heatTiles][]repro.AccessSpec
	bodies  [heatTasks]func(*repro.Ctx)
	root    func(*repro.Ctx)

	tr  *tracer
	cur []span // spans of the traced op in flight, or nil
}

// heatID is the span id of the task of sweep s on tile (bi, bj); 0 is
// the solve's own span.
func heatID(s, bi, bj int) int32 { return int32(1 + s*heatTiles + bi*heatNB + bj) }

// heatPreds lists, for every span id, the tasks the runtime must finish
// before that task may start: its own tile in the previous sweep, the
// left and top tiles in this sweep, and the right and bottom tiles in
// the previous sweep (whose later writers wait for this task's read).
func heatPreds() [][]int32 {
	preds := make([][]int32, heatTasks+1)
	for s := 0; s < heatSweeps; s++ {
		for bi := 0; bi < heatNB; bi++ {
			for bj := 0; bj < heatNB; bj++ {
				var p []int32
				if s > 0 {
					p = append(p, heatID(s-1, bi, bj))
					if bi < heatNB-1 {
						p = append(p, heatID(s-1, bi+1, bj))
					}
					if bj < heatNB-1 {
						p = append(p, heatID(s-1, bi, bj+1))
					}
				}
				if bi > 0 {
					p = append(p, heatID(s, bi-1, bj))
				}
				if bj > 0 {
					p = append(p, heatID(s, bi, bj-1))
				}
				preds[heatID(s, bi, bj)] = p
			}
		}
	}
	return preds
}

func setupHeat(rt *repro.Runtime, seed int64) (instance, error) {
	h := &heat{rt: rt, input: heatInput(seed), tileRes: make([]float64, heatTiles)}
	h.want = append([]float64(nil), h.input...)
	h.wantRes = solveSerial(h.want)
	h.grid = make([]float64, len(h.input))
	rep := func(bi, bj int) *float64 { return &h.grid[(bi*heatBlock+1)*heatStride+bj*heatBlock+1] }
	for bi := 0; bi < heatNB; bi++ {
		for bj := 0; bj < heatNB; bj++ {
			sp := []repro.AccessSpec{repro.InOut(rep(bi, bj))}
			if bi > 0 {
				sp = append(sp, repro.In(rep(bi-1, bj)))
			}
			if bj > 0 {
				sp = append(sp, repro.In(rep(bi, bj-1)))
			}
			if bi < heatNB-1 {
				sp = append(sp, repro.In(rep(bi+1, bj)))
			}
			if bj < heatNB-1 {
				sp = append(sp, repro.In(rep(bi, bj+1)))
			}
			h.specs[bi*heatNB+bj] = sp
		}
	}
	for s := 0; s < heatSweeps; s++ {
		for bi := 0; bi < heatNB; bi++ {
			for bj := 0; bj < heatNB; bj++ {
				h.bodies[heatID(s, bi, bj)-1] = h.body(s, bi, bj)
			}
		}
	}
	h.root = func(c *repro.Ctx) {
		for k, b := range h.bodies {
			c.Spawn(b, h.specs[k%heatTiles]...)
		}
	}
	for k := 0; k < heatWarmup; k++ {
		if _, err := h.op(k); err != nil {
			return nil, fmt.Errorf("warm-up solve: %w", err)
		}
	}
	return h, nil
}

func (h *heat) body(s, bi, bj int) func(*repro.Ctx) {
	id := heatID(s, bi, bj)
	last := s == heatSweeps-1
	return func(*repro.Ctx) {
		cur := h.cur
		var t0 int64
		if cur != nil {
			t0 = now()
		}
		r := sweepTile(h.grid, bi, bj)
		if last {
			h.tileRes[bi*heatNB+bj] = r
		}
		if cur != nil {
			h.tr.record(cur, id, t0, now())
		}
	}
}

func (h *heat) tasksPerOp() int { return heatTasks }

func (h *heat) trace(tr *tracer) { h.tr = tr }

// op is one solve: the grid is reset to the input, solved through the
// runtime, and the residual folded. The reset and the check against
// the serial answer lie outside the timed span.
func (h *heat) op(int) (time.Duration, error) {
	copy(h.grid, h.input)
	h.cur = nil
	if h.tr != nil {
		h.cur = h.tr.next()
	}
	t0 := now()
	err := h.rt.Run(h.root)
	res := foldResidual(h.tileRes)
	t1 := now()
	if h.cur != nil {
		h.cur[0] = span{start: t0, end: t1}
	}
	lat := time.Duration(t1 - t0)
	if err != nil {
		return lat, err
	}
	if err := checkHeat(h.grid, h.want, res, h.wantRes); err != nil {
		return lat, &wrongOutput{err}
	}
	return lat, nil
}
