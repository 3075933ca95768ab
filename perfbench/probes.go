package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro"
	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/locks"
	"repro/internal/sched"
)

// A probe calls one layer's public functions alone from g goroutines
// (g = 1 and g = nproc) for a fixed slice of time. Each goroutine
// times its own blocks of calls; a probe's time per call is the timed
// nanoseconds summed over goroutines divided by the calls made, which
// is the cost one caller sees at that width.

// probeSlice is how long one probe runs at one width.
const probeSlice = 100 * time.Millisecond

// probeStat is what one probe measured at one width.
type probeStat struct {
	calls int64
	ns    int64
}

func (p probeStat) perCall() float64 {
	if p.calls == 0 {
		return 0
	}
	return float64(p.ns) / float64(p.calls)
}

// parallel runs body(id, stop) on g goroutines until the slice ends and
// waits for all of them.
func parallel(g int, body func(id int, stop *atomic.Bool)) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(g)
	for id := 0; id < g; id++ {
		go func(id int) {
			defer wg.Done()
			body(id, &stop)
		}(id)
	}
	time.Sleep(probeSlice)
	stop.Store(true)
	wg.Wait()
}

// counts sums per-goroutine call counts and timed nanoseconds.
type counts struct {
	mu sync.Mutex
	probeStat
}

func (c *counts) add(calls, ns int64) {
	c.mu.Lock()
	c.calls += calls
	c.ns += ns
	c.mu.Unlock()
}

// Heat stencil probe grid: the access pattern of heat-fine on a small
// tile grid, registered as the children of one parent per goroutine.
const (
	probeNB     = 8
	probeSweeps = 4
	probeTasks  = probeNB * probeNB * probeSweeps
)

// depsGraph is one goroutine's private dependency graph for the deps
// probe: a parent and its stencil children over private cells. Access
// storage is preallocated, five per task: Node.InitAccesses would
// allocate for every task with more accesses than fit inline, and the
// garbage collector's assists would land in the timed calls.
type depsGraph struct {
	parent deps.Node
	nodes  [probeTasks]deps.Node
	accs   [probeTasks][5]deps.Access
	cells  [probeNB * probeNB]float64
	ready  []*deps.Node
}

func (g *depsGraph) init() {
	for k := range g.nodes {
		n := &g.nodes[k]
		n.Reset()
		n.Payload = g
		tile := k % (probeNB * probeNB)
		bi, bj := tile/probeNB, tile%probeNB
		specs := [5]deps.AccessSpec{{Addr: unsafe.Pointer(&g.cells[tile]), Type: deps.ReadWrite}}
		c := 1
		for _, nb := range [4][2]int{{bi - 1, bj}, {bi, bj - 1}, {bi + 1, bj}, {bi, bj + 1}} {
			if nb[0] >= 0 && nb[0] < probeNB && nb[1] >= 0 && nb[1] < probeNB {
				specs[c] = deps.AccessSpec{Addr: unsafe.Pointer(&g.cells[nb[0]*probeNB+nb[1]]), Type: deps.Read}
				c++
			}
		}
		n.Accesses = g.accs[k][:c]
		for i := range n.Accesses {
			n.Accesses[i].Init(n, specs[i])
		}
	}
	g.parent.Reset()
	g.ready = g.ready[:0]
}

// probeDeps measures WaitFree Register and Unregister on the heat
// stencil pattern: every task of a round is registered, then ready
// tasks are unregistered until the round drains.
func probeDeps(g int) (reg, unreg probeStat, err error) {
	graphs := make([]*depsGraph, g)
	for i := range graphs {
		graphs[i] = &depsGraph{ready: make([]*deps.Node, 0, probeTasks)}
	}
	sys := deps.NewWaitFree(func(n *deps.Node, worker int) {
		gr := graphs[worker]
		gr.ready = append(gr.ready, n)
	}, g)
	var r, u counts
	var failed atomic.Bool
	parallel(g, func(id int, stop *atomic.Bool) {
		gr := graphs[id]
		var calls, regNS, unregNS int64
		for !stop.Load() {
			gr.init()
			t0 := now()
			for k := range gr.nodes {
				sys.Register(&gr.parent, &gr.nodes[k], id)
			}
			t1 := now()
			done := 0
			for len(gr.ready) > 0 {
				n := gr.ready[len(gr.ready)-1]
				gr.ready = gr.ready[:len(gr.ready)-1]
				sys.Unregister(n, id)
				done++
			}
			t2 := now()
			// Closing the parent's domain drops the chain-tail pins, so
			// every node is quiescent and init may reset it.
			sys.Unregister(&gr.parent, id)
			if done != probeTasks {
				failed.Store(true)
				return
			}
			calls += probeTasks
			regNS += t1 - t0
			unregNS += t2 - t1
		}
		r.add(calls, regNS)
		u.add(calls, unregNS)
	})
	if failed.Load() {
		return reg, unreg, fmt.Errorf("deps probe: a round did not drain")
	}
	return r.probeStat, u.probeStat, nil
}

// probeBlock is how many calls a probe times as one block.
const probeBlock = 64

// probeRootLease measures RootDomain Acquire+Release of one access on
// a root domain of the runtime's default shard count.
func probeRootLease(g int) probeStat {
	d := deps.NewRootDomain(deps.NormalizeShards(max(16, 4*nproc())))
	var c counts
	parallel(g, func(id int, stop *atomic.Bool) {
		var cell float64
		accs := []deps.AccessSpec{{Addr: unsafe.Pointer(&cell), Type: deps.ReadWrite}}
		var calls, ns int64
		for !stop.Load() {
			t0 := now()
			for i := 0; i < probeBlock; i++ {
				d.Acquire(accs).Release()
			}
			ns += now() - t0
			calls += probeBlock
		}
		c.add(calls, ns)
	})
	return c.probeStat
}

type probeItem struct{ _ [64]byte }

// probeSched measures Sync Add and Get over a FIFO policy: each
// goroutine adds a block of tasks, then gets a block back. The hit
// ratio is the share of Gets that returned a task.
func probeSched(g int) (add, get probeStat, hitRatio float64) {
	s := sched.NewSync[*probeItem](sched.NewFIFO[*probeItem](), g, 1, 1, 0, sched.Hooks{})
	items := make([]probeItem, g)
	var a, gt counts
	var hits atomic.Int64
	parallel(g, func(id int, stop *atomic.Bool) {
		var calls, addNS, getNS, hit int64
		for !stop.Load() {
			t0 := now()
			for i := 0; i < probeBlock; i++ {
				s.Add(&items[id], id)
			}
			t1 := now()
			for i := 0; i < probeBlock; i++ {
				if s.Get(id) != nil {
					hit++
				}
			}
			getNS += now() - t1
			addNS += t1 - t0
			calls += probeBlock
		}
		a.add(calls, addNS)
		gt.add(calls, getNS)
		hits.Add(hit)
	})
	// Drain what other goroutines' Gets left behind.
	for s.Get(0) != nil {
	}
	if gt.calls > 0 {
		hitRatio = float64(hits.Load()) / float64(gt.calls)
	}
	return a.probeStat, gt.probeStat, hitRatio
}

// probeDTLock measures one LockOrDelegate cycle: the caller either is
// served by the owner or takes the lock, serves every waiter and
// unlocks.
func probeDTLock(g int) probeStat {
	l := locks.NewDTLock[int](g)
	var c counts
	parallel(g, func(id int, stop *atomic.Bool) {
		var calls, ns int64
		var item int
		for !stop.Load() {
			t0 := now()
			for i := 0; i < probeBlock; i++ {
				if l.LockOrDelegate(uint64(id), &item) {
					for !l.Empty() {
						l.SetItem(l.Front(), 1)
						l.PopFront()
					}
					l.Unlock()
				}
			}
			ns += now() - t0
			calls += probeBlock
		}
		c.add(calls, ns)
	})
	return c.probeStat
}

// probeWake measures one Parker round trip: from WakeOne to the return
// from Park, on g parker/waker pairs, each pair with its own Parker.
// The wake stamp is the published work: Park's recheck must see it, or
// a WakeOne racing the parker's pre-sleep registration is lost.
func probeWake(g int) probeStat {
	var c counts
	parallel(g, func(id int, stop *atomic.Bool) {
		p := sched.NewParker(1, 1, nil)
		var woke atomic.Int64 // wake stamp of the round in flight; 0 when idle
		var rtt, rounds atomic.Int64
		recheck := func() bool { return woke.Load() != 0 }
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				p.Park(0, recheck)
				t := woke.Load()
				if t < 0 {
					return
				}
				rtt.Add(now() - t)
				rounds.Add(1)
				woke.Store(0)
			}
		}()
		waitParked := func() {
			for p.Parked() == 0 {
				runtime.Gosched()
			}
		}
		for !stop.Load() {
			waitParked()
			woke.Store(now())
			p.WakeOne(0, -1)
			for woke.Load() != 0 {
				runtime.Gosched()
			}
		}
		waitParked()
		woke.Store(-1)
		p.WakeOne(0, -1)
		<-done
		c.add(rounds.Load(), rtt.Load())
	})
	return c.probeStat
}

// probeRuntimeCycles measures SubmitReq+Wait and Submit+Wait with
// empty bodies on a façade-default runtime, one Req per goroutine.
func probeRuntimeCycles(g int) (req, submit probeStat, err error) {
	rt := newRuntime()
	defer rt.Close()
	ctx := context.Background()
	empty := func(*repro.Ctx) {}
	var rc counts
	var firstErr atomic.Value
	parallel(g, func(id int, stop *atomic.Bool) {
		r := core.NewReq()
		var calls, ns int64
		for !stop.Load() {
			t0 := now()
			for i := 0; i < probeBlock; i++ {
				rt.SubmitReq(ctx, r, 0, empty)
				if err := r.Wait(); err != nil {
					firstErr.CompareAndSwap(nil, err)
				}
			}
			ns += now() - t0
			calls += probeBlock
		}
		rc.add(calls, ns)
	})
	emptyFn := func(*repro.Ctx) (any, error) { return nil, nil }
	var sc counts
	parallel(g, func(id int, stop *atomic.Bool) {
		var calls, ns int64
		for !stop.Load() {
			t0 := now()
			for i := 0; i < probeBlock; i++ {
				if _, err := rt.Submit(emptyFn).Wait(ctx); err != nil {
					firstErr.CompareAndSwap(nil, err)
				}
			}
			ns += now() - t0
			calls += probeBlock
		}
		sc.add(calls, ns)
	})
	if e := firstErr.Load(); e != nil {
		return req, submit, fmt.Errorf("runtime probe: %w", e.(error))
	}
	if live := rt.LiveTasks(); live != 0 {
		return req, submit, fmt.Errorf("runtime probe: %d tasks live after the cycles", live)
	}
	return rc.probeStat, sc.probeStat, nil
}

// taskShell stands in for a task shell in the allocator probe.
type taskShell struct{ _ [512]byte }

// probeAlloc measures one Get+Put pair on the pooled allocator: each
// goroutine takes two refill batches' worth, then returns them, so the
// shared arena's lock is on the path as it is when tasks finish on
// another worker than the one that created them.
func probeAlloc(g int) probeStat {
	const batch = 128
	p := alloc.NewPooled[taskShell](g, 0)
	var c counts
	parallel(g, func(id int, stop *atomic.Bool) {
		held := make([]*taskShell, batch)
		var calls, ns int64
		for !stop.Load() {
			t0 := now()
			for i := range held {
				held[i] = p.Get(id)
			}
			for _, o := range held {
				p.Put(id, o)
			}
			ns += now() - t0
			calls += batch
		}
		c.add(calls, ns)
	})
	return c.probeStat
}

// runProbes runs every probe at 1 and nproc goroutines into res.
func runProbes(res *result) error {
	widths := []struct {
		suffix string
		g      int
	}{{"g1", 1}, {"gN", nproc()}}
	put := func(name, suffix string, p probeStat) {
		res.set(name+"_ns."+suffix, p.perCall(), "ns")
		res.set(name+"_calls."+suffix, float64(p.calls), "count")
	}
	for _, w := range widths {
		reg, unreg, err := probeDeps(w.g)
		if err != nil {
			return err
		}
		put("deps.register", w.suffix, reg)
		put("deps.unregister", w.suffix, unreg)
		put("deps.root_lease", w.suffix, probeRootLease(w.g))
		add, get, hits := probeSched(w.g)
		put("sched.add", w.suffix, add)
		put("sched.get", w.suffix, get)
		res.set("sched.get_hit_ratio."+w.suffix, hits, "ratio")
		put("locks.dtlock_delegate", w.suffix, probeDTLock(w.g))
		put("sched.wake_roundtrip", w.suffix, probeWake(w.g))
		req, submit, err := probeRuntimeCycles(w.g)
		if err != nil {
			return err
		}
		put("core.req_cycle", w.suffix, req)
		put("core.submit_cycle", w.suffix, submit)
		put("alloc.getput", w.suffix, probeAlloc(w.g))
	}
	return nil
}
