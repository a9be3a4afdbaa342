package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/experiments"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/workload"
)

// The traced run replays a workload's plan inside this process. The
// experiments layer runs as cmd/experiments runs it (Select, NewEval,
// Plan, ExecuteCellsOn, render), but the cells go to tracedExecutor,
// which rebuilds each cell's simulation from the layers' public
// constructors with the wrappers of wrap.go in between, and installs
// the results into the evaluation through the result codec so the
// figures render from them. The rendered bytes must equal the
// untraced run's stdout.

// cellTrace is what one traced cell measured. Times are offsets from
// the pass origin.
type cellTrace struct {
	key, design              string
	start, end               time.Duration
	workloadStart, l2Start   time.Duration
	cmpsimStart, warmupStart time.Duration
	runStart, installStart   time.Duration
	installEnd               time.Duration
	next, access, iscomm     callStat
	sim                      []uint64 // simulated counts, in simCountNames order
}

// simCountNames names the simulated counters a traced cell reports,
// summed over the cell's cores. All of them cover the measurement
// window only (the bus counters are differenced across it).
var simCountNames = []string{
	"cmpsim.l1d_hits", "cmpsim.l1d_misses", "cmpsim.l1i_hits", "cmpsim.l1i_misses",
	"cmpsim.writethroughs", "cmpsim.sim_cycles",
	"l2.hits", "l2.ros_misses", "l2.rws_misses", "l2.capacity_misses", "l2.offchip_misses",
	"core.replications", "core.pointer_returns", "core.promotions", "core.demotions",
	"bus.transactions", "bus.wait_cycles",
}

// busOwner is implemented by the designs built around a snoopy bus.
type busOwner interface{ Bus() *bus.Bus }

func busCounts(d memsys.L2) (tx, wait uint64) {
	if b, ok := d.(busOwner); ok {
		return b.Bus().TotalTransactions(), uint64(b.Bus().WaitCycles())
	}
	return 0, 0
}

func simCounts(r cmpsim.Results, busTx, busWait uint64) []uint64 {
	var l1dh, l1dm, l1ih, l1im, wt uint64
	for _, c := range r.Cores {
		l1dh += c.L1DHits
		l1dm += c.L1DMisses
		l1ih += c.L1IHits
		l1im += c.L1IMisses
		wt += c.Writethroughs
	}
	s := r.L2
	return []uint64{
		l1dh, l1dm, l1ih, l1im, wt, uint64(r.Cycles),
		s.Accesses.Count(memsys.LabelHit), s.Accesses.Count(memsys.LabelROS),
		s.Accesses.Count(memsys.LabelRWS), s.Accesses.Count(memsys.LabelCapacity), s.OffChipMisses,
		s.Replications, s.PointerReturns, s.Promotions, s.Demotions,
		busTx, busWait,
	}
}

// newCellWorkload builds the workload behind a plan cell key exactly
// as experiments.Eval does: "mt/<design>/<profile>" runs a fresh
// generator for the profile at the run seed, "mp/<design>/<mix>" a
// freshly built set of mixes.
func newCellWorkload(e *experiments.Eval, key string) (experiments.DesignName, cmpsim.Workload) {
	parts := strings.SplitN(key, "/", 3)
	if len(parts) != 3 {
		panic(fmt.Sprintf("perfbench: cannot replay cell %q", key))
	}
	d := experiments.DesignName(parts[1])
	switch parts[0] {
	case "mt":
		for _, p := range e.Profiles() {
			if p.Name == parts[2] {
				p.Seed = e.RC.Seed
				return d, workload.New(p)
			}
		}
	case "mp":
		for i, m := range e.Mixes() {
			if m.Name() == parts[2] {
				return d, workload.Mixes(e.RC.Seed)[i]
			}
		}
	}
	panic(fmt.Sprintf("perfbench: cannot replay cell %q", key))
}

// replayCell runs one cell's simulation through the traced wrappers,
// with the configuration experiments.Run uses. clock returns the
// current offset from the pass origin.
func replayCell(e *experiments.Eval, key string, clock func() time.Duration) (cmpsim.Results, cellTrace) {
	ct := cellTrace{key: key, workloadStart: clock()}
	d, w := newCellWorkload(e, key)
	ct.design = string(d)
	ct.l2Start = clock()
	design := experiments.NewDesign(d)
	ct.cmpsimStart = clock()
	l2w, l2t := wrapL2(design)
	tw := &tracedWorkload{inner: w}
	cfg := cmpsim.DefaultConfig()
	cfg.MaxCycles = e.RC.MaxCycles
	sys := cmpsim.New(cfg, l2w, tw)
	ct.warmupStart = clock()
	sys.Warmup(e.RC.WarmupInstr)
	ct.runStart = clock()
	tx0, wait0 := busCounts(design)
	res := sys.Run(e.RC.Instructions)
	tx1, wait1 := busCounts(design)
	ct.installStart = clock()
	ct.next, ct.access, ct.iscomm = tw.next, l2t.access, l2t.iscomm
	ct.sim = simCounts(res, tx1-tx0, wait1-wait0)
	return res, ct
}

// installResults puts a cell's results into the evaluation's cache
// through the result codec, the path farm workers' results take.
func installResults(e *experiments.Eval, key string, r cmpsim.Results) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("perfbench: encoding %s: %w", key, err)
	}
	payload, err := json.Marshal([]experiments.ExportedEntry{{Key: key, Kind: "results", Data: data}})
	if err != nil {
		return fmt.Errorf("perfbench: encoding %s: %w", key, err)
	}
	return e.ImportPayload(payload)
}

// tracedExecutor is the experiments.CellExecutor of the traced run.
type tracedExecutor struct {
	// synccheck:unguarded immutable after construction
	eval *experiments.Eval
	// synccheck:unguarded immutable after construction
	origin time.Time

	mu sync.Mutex
	// synccheck:guardedby mu
	cells []cellTrace
}

func (x *tracedExecutor) clock() time.Duration {
	return time.Since(x.origin) // synccheck:nondet host timing of the traced run; reaches the report, never results
}

func (x *tracedExecutor) Execute(c experiments.Cell) *experiments.CellFailure {
	start := x.clock()
	var res cmpsim.Results
	var ct cellTrace
	f := experiments.CapturePanic(c.Key, func() { res, ct = replayCell(x.eval, c.Key, x.clock) })
	if f == nil {
		if err := installResults(x.eval, c.Key, res); err != nil {
			f = &experiments.CellFailure{Key: c.Key, Diagnostic: err.Error()}
		}
	}
	if f != nil {
		x.eval.InstallFailure(c.Key, f.Diagnostic, f.Stack)
		return f
	}
	ct.start = start
	ct.installEnd = x.clock()
	ct.end = ct.installEnd
	x.mu.Lock()
	defer x.mu.Unlock()
	x.cells = append(x.cells, ct)
	return nil
}

// tracePass is one traced replay of a workload's plan.
type tracePass struct {
	wall                        time.Duration
	planEnd, execEnd, renderEnd time.Duration
	renders                     []namedSpan
	cells                       []cellTrace
	failures                    int
	output                      []byte
}

type namedSpan struct {
	name string
	span
}

// runTracePass replays the plan of exps at the given scale and
// parallelism.
func runTracePass(exps string, rc experiments.RunConfig, parallel int) (tracePass, error) {
	x := &tracedExecutor{origin: time.Now()}
	selected, err := experiments.Select(exps)
	if err != nil {
		return tracePass{}, err
	}
	x.eval = experiments.NewEval(rc)
	cells := experiments.Plan(selected, x.eval)
	p := tracePass{planEnd: x.clock()}
	p.failures = len(experiments.ExecuteCellsOn(x, cells, parallel, false, nil))
	p.execEnd = x.clock()
	var out strings.Builder
	for _, ex := range selected {
		t0 := x.clock()
		var rendered string
		f := experiments.CapturePanic(ex.Name, func() {
			if ex.Table != nil {
				rendered = ex.Table(x.eval).String()
			} else {
				rendered = ex.Text(x.eval)
			}
		})
		if f != nil {
			p.failures++
			fmt.Fprintf(&out, "ERR %s: %s\n\n", ex.Name, f.Diagnostic)
		} else {
			out.WriteString(rendered + "\n")
		}
		p.renders = append(p.renders, namedSpan{ex.Name, span{t0, x.clock()}})
	}
	p.renderEnd = x.clock()
	p.wall = p.renderEnd
	p.output = []byte(out.String())
	x.mu.Lock()
	p.cells = x.cells
	x.mu.Unlock()
	return p, nil
}

// clockCost measures what one back-to-back time.Now/time.Since pair
// adds to a timed interval: the bias estimate subtracts per sample.
func clockCost() time.Duration {
	const n = 20000
	var costs []float64
	for b := 0; b < 5; b++ {
		var sum time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			sum += time.Since(t0)
		}
		costs = append(costs, float64(sum)/n)
	}
	return time.Duration(median(costs))
}

// spanRecord is one span of the written trace. Times are nanoseconds
// from the start of the pass; Parent is -1 for a pass's root.
type spanRecord struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Pass   int               `json:"pass"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]uint64 `json:"attrs,omitempty"`
}

// spanLog collects the spans of every traced pass in memory; the
// benchmark writes it out once, at the end.
type spanLog struct{ spans []spanRecord }

func (l *spanLog) add(pass, parent int, name string, s span, attrs map[string]uint64) int {
	id := len(l.spans)
	l.spans = append(l.spans, spanRecord{ID: id, Parent: parent, Pass: pass, Name: name,
		Start: int64(s.start), End: int64(s.end), Attrs: attrs})
	return id
}

// record adds one pass's spans: the pass, its plan, execute and render
// phases, each cell with its construct, warmup, run and install
// children, and each experiment's render. The per-call boundaries are
// counters on their cell's span, not spans of their own.
func (l *spanLog) record(pass int, p tracePass, cost time.Duration) {
	root := l.add(pass, -1, "pass", span{0, p.wall}, nil)
	l.add(pass, root, "experiments.plan", span{0, p.planEnd}, nil)
	exec := l.add(pass, root, "experiments.execute", span{p.planEnd, p.execEnd}, nil)
	for _, c := range p.cells {
		attrs := map[string]uint64{
			"workload.next_calls":  c.next.calls,
			"workload.next_ns_est": uint64(c.next.estimate(cost)),
			"l2.access_calls":      c.access.calls,
			"l2.access_ns_est":     uint64(c.access.estimate(cost)),
			"l2.iscomm_calls":      c.iscomm.calls,
			"l2.iscomm_ns_est":     uint64(c.iscomm.estimate(cost)),
		}
		for i, name := range simCountNames {
			attrs[name] = c.sim[i]
		}
		id := l.add(pass, exec, "cell "+c.key, span{c.start, c.end}, attrs)
		l.add(pass, id, "workload.construct", span{c.workloadStart, c.l2Start}, nil)
		l.add(pass, id, "l2.construct", span{c.l2Start, c.cmpsimStart}, nil)
		l.add(pass, id, "cmpsim.construct", span{c.cmpsimStart, c.warmupStart}, nil)
		l.add(pass, id, "cmpsim.warmup", span{c.warmupStart, c.runStart}, nil)
		l.add(pass, id, "cmpsim.run", span{c.runStart, c.installStart}, nil)
		l.add(pass, id, "experiments.install", span{c.installStart, c.installEnd}, nil)
	}
	render := l.add(pass, root, "experiments.render", span{p.execEnd, p.renderEnd}, nil)
	for _, r := range p.renders {
		l.add(pass, render, "render "+r.name, r.span, nil)
	}
}
