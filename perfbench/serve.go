package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro"
)

// The serving DAG is the 7-node fan-in shape of internal/bench: three
// sources feed two mid-tier joins, a fan-in quote and a sink. Each
// request carries a seed-derived input that the sources read. Every
// value stays below 256, which Go boxes without allocating, so the
// heap figures measure the serving machinery, not the node values.
const (
	nAuth = iota
	nUser
	nInv
	nPrice
	nPromo
	nQuote
	nRender
	nNodes
)

var nodeNames = [nNodes]string{"auth", "user", "inv", "price", "promo", "quote", "render"}

// nodeDeps lists each node's dependencies by node number.
var nodeDeps = [nNodes][]int{
	nPrice:  {nUser, nInv},
	nPromo:  {nAuth, nUser},
	nQuote:  {nPrice, nPromo},
	nRender: {nQuote},
}

// serveInputs is how many distinct request inputs a run cycles through.
const serveInputs = 4096

// serveWarmup requests run during set-up, before the first timed op.
const serveWarmup = 1000

// reqInput is one request's input; each field is below 256.
type reqInput struct{ a, u, v int }

func serveInput(seed int64) []reqInput {
	r := rand.New(rand.NewSource(seed))
	in := make([]reqInput, serveInputs)
	for i := range in {
		in[i] = reqInput{r.Intn(256), r.Intn(256), r.Intn(256)}
	}
	return in
}

// The node functions, shared by the graph and the plain-Go reference.
func fAuth(in reqInput) int { return (in.a*7 + 3) & 0xff }
func fUser(in reqInput) int { return (in.u*5 + 1) & 0xff }
func fInv(in reqInput) int  { return (in.v*3 + 11) & 0xff }
func fPrice(u, v int) int   { return (u * v) & 0xff }
func fPromo(a, u int) int   { return (a + u) & 0xff }
func fQuote(p, q int) int   { return p ^ q }
func fRender(q int) int     { return (q * 3) & 0xff }

// evalPlain evaluates the DAG in plain Go, apart from the runtime.
func evalPlain(in reqInput) [nNodes]int {
	var v [nNodes]int
	v[nAuth], v[nUser], v[nInv] = fAuth(in), fUser(in), fInv(in)
	v[nPrice] = fPrice(v[nUser], v[nInv])
	v[nPromo] = fPromo(v[nAuth], v[nUser])
	v[nQuote] = fQuote(v[nPrice], v[nPromo])
	v[nRender] = fRender(v[nQuote])
	return v
}

// checkServe compares all node values of a request with evalPlain.
func checkServe(got [nNodes]int, in reqInput) error {
	want := evalPlain(in)
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("serve: node %s = %d, plain Go %d (input %+v)", nodeNames[i], got[i], want[i], in)
		}
	}
	return nil
}

// serve is one serving instance: a compiled template on the runtime
// and the request inputs.
type serve struct {
	cg     *repro.CompiledGraph
	idx    [nNodes]int // node number -> compiled index
	inputs []reqInput
	ctx    context.Context

	// cur is the input of the request in flight; the single client
	// writes it before Do, which orders it before the source bodies.
	cur   reqInput
	tr    *tracer
	spans []span // spans of the traced request in flight, or nil
}

// servePreds is nodeDeps as span ids (node number + 1; 0 is the
// request's own span).
func servePreds() [][]int32 {
	preds := make([][]int32, nNodes+1)
	for n, ds := range nodeDeps {
		for _, d := range ds {
			preds[n+1] = append(preds[n+1], int32(d+1))
		}
	}
	return preds
}

func setupServe(rt *repro.Runtime, seed int64) (instance, error) {
	s := &serve{inputs: serveInput(seed), ctx: context.Background()}
	dep := func(d map[string]any, n int) int { return d[nodeNames[n]].(int) }
	fns := [nNodes]func(map[string]any) int{
		nAuth:   func(map[string]any) int { return fAuth(s.cur) },
		nUser:   func(map[string]any) int { return fUser(s.cur) },
		nInv:    func(map[string]any) int { return fInv(s.cur) },
		nPrice:  func(d map[string]any) int { return fPrice(dep(d, nUser), dep(d, nInv)) },
		nPromo:  func(d map[string]any) int { return fPromo(dep(d, nAuth), dep(d, nUser)) },
		nQuote:  func(d map[string]any) int { return fQuote(dep(d, nPrice), dep(d, nPromo)) },
		nRender: func(d map[string]any) int { return fRender(dep(d, nQuote)) },
	}
	g := repro.NewGraph()
	for n := 0; n < nNodes; n++ {
		var deps []string
		for _, d := range nodeDeps[n] {
			deps = append(deps, nodeNames[d])
		}
		g.Add(nodeNames[n], deps, s.node(n, fns[n]))
	}
	cg, err := g.Compile(rt)
	if err != nil {
		return nil, err
	}
	s.cg = cg
	for n := range s.idx {
		i, ok := cg.NodeIndex(nodeNames[n])
		if !ok {
			return nil, fmt.Errorf("serve: compiled graph lost node %s", nodeNames[n])
		}
		s.idx[n] = i
	}
	for k := 0; k < serveWarmup; k++ {
		if _, err := s.op(k); err != nil {
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return s, nil
}

// node wraps a node function as a graph body that records its span
// when the request in flight is traced.
func (s *serve) node(n int, f func(map[string]any) int) repro.GraphFunc {
	id := int32(n + 1)
	return func(_ *repro.Ctx, d map[string]any) (any, error) {
		cur := s.spans
		var t0 int64
		if cur != nil {
			t0 = now()
		}
		v := f(d)
		if cur != nil {
			s.tr.record(cur, id, t0, now())
		}
		return v, nil
	}
}

func (s *serve) tasksPerOp() int { return nNodes }

func (s *serve) trace(tr *tracer) { s.tr = tr }

// op is one request: Do on input k, then all node values read and
// checked against plain Go outside the timed span.
func (s *serve) op(k int) (time.Duration, error) {
	in := s.inputs[k%len(s.inputs)]
	s.cur = in
	s.spans = nil
	if s.tr != nil {
		s.spans = s.tr.next()
	}
	t0 := now()
	e, err := s.cg.Do(s.ctx)
	t1 := now()
	if s.spans != nil {
		s.spans[0] = span{start: t0, end: t1}
	}
	lat := time.Duration(t1 - t0)
	defer e.Release()
	if err != nil {
		return lat, err
	}
	var got [nNodes]int
	for n := range got {
		v, err := e.ValueAt(s.idx[n])
		if err != nil {
			return lat, err
		}
		got[n] = v.(int)
	}
	if err := checkServe(got, in); err != nil {
		return lat, &wrongOutput{err}
	}
	return lat, nil
}
