// Command perfbench is the repository benchmark. It drives one workload
// of the AdaptiveFL system through the public API of internal/exp,
// internal/core, internal/sched and internal/fednet as a closed loop —
// the next commit starts only when the previous one returns — and prints
// the end-to-end metrics, or with -trace 1 the per-layer metrics of a
// traced run and a kernel replay, followed by one JSON result line.
//
//	perfbench -workload sync-mnv2|fednet-vgg16-q8|popsim-1e6|all \
//	          -seed N -seconds S -trace 0|1
//
// See README.md in this directory for the workloads, the metrics and how
// to read a traced run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"adaptivefl/internal/core"
	"adaptivefl/internal/exp"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/obs/analyze"
	"adaptivefl/internal/wire"
)

// workload is one input set of the benchmark.
type workload struct {
	name string
	// open builds the system from the seed; warm commits follow it as part
	// of set-up.
	open func(env) (system, error)
	warm int
	// openReps is how many times an untraced run builds the system; every
	// build must reach the same weights. The last one is measured.
	openReps int
	// setupProbe, when set, is timed for setup_s instead of open.
	setupProbe func(env) error
	// check is a correctness check run once on the first build.
	check func(env, system) error
	// evalEvery is how many commits pass between evaluations of a system
	// that evaluates (popsim-1e6 does not, as in the CI popsim runs).
	evalEvery int
	// trainInAgents marks local training that runs inside fednet agents,
	// whose spans then stand for training in core.train.busy_frac.
	trainInAgents bool
	// codec is the wire codec tag the workload moves models through; a
	// traced run registers a timed wrapper under it.
	codec string
}

var workloads = map[string]workload{
	"sync-mnv2": {name: "sync-mnv2", open: openSync, warm: 1, openReps: 5, evalEvery: 4},
	"fednet-vgg16-q8": {name: "fednet-vgg16-q8", open: func(e env) (system, error) { return openFednet(e) },
		warm: 2, openReps: 5, evalEvery: 4, trainInAgents: true, codec: wire.TagQ8},
	"popsim-1e6": {name: "popsim-1e6", open: func(e env) (system, error) { return openPop(e) },
		openReps: 1,
		setupProbe: func(e env) error {
			spec, err := core.ParsePopulation(popSpec)
			if err != nil {
				return err
			}
			_, err = exp.RunPopSim(nil, spec, popScale(e), popEdges, 0, 0)
			return err
		},
		check: func(e env, s system) error { return checkPopSim(e, s.(*popSys)) }},
}

// workloadOrder is the order -workload all runs them in.
var workloadOrder = []string{"sync-mnv2", "fednet-vgg16-q8", "popsim-1e6"}

// setupProbeReps is how many times setup_s is measured in an untraced run.
const setupProbeReps = 9

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spansDir is where a traced run writes its spans: .bench_build/spans
	// under the working directory.
	spansDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a run's result plus the human-readable lines printed above it.
type report struct {
	result
	lines    []string
	problems []string
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// endToEndMetrics are what an untraced run reports, and perLayerMetrics
// what a traced run reports; BENCHMARK.json declares exactly these.
var (
	endToEndMetrics = []string{
		"setup_s", "commit_ms_p50", "commit_ms_tail", "samples_per_s", "sim_s_per_wall_s",
		"alloc_mb_per_commit", "allocs_per_commit", "peak_rss_mb", "wire_mb_per_commit", "op_ok_frac",
	}
	perLayerMetrics = []string{
		"tensor.gemm.ms", "tensor.gemm.gflops", "tensor.im2col.ms", "tensor.col2im.ms",
		"nn.dwconv.fwd.ms", "nn.dwconv.bwd.ms", "nn.bn.fwd.ms", "nn.bn.bwd.ms",
		"nn.relu.fwd.ms", "nn.relu.bwd.ms", "nn.conv.fwd.ms", "nn.conv.bwd.ms", "nn.alloc_mb_per_step",
		"models.train_step.L1.ms", "models.train_step.M1.ms", "models.train_step.S1.ms", "models.infer.ms",
		"core.train.ms", "core.train.busy_frac", "core.plan.ms", "core.record.ms",
		"core.materialise.ms", "core.lru.hit_ratio",
		"prune.extract.ms",
		"wire.encode.ms", "wire.decode.ms", "wire.encode.mb_per_s", "wire.payload_kb", "wire.store.hit_ratio",
		"fednet.rtt.ms_p50", "fednet.rtt.ms_tail", "fednet.agent.ms", "fednet.transport.ms",
		"fednet.retry_frac", "fednet.error_frac",
		"agg.apply.ms",
		"rl.select.dense.us", "rl.select.sparse.us",
		"sched.step.self_ms",
		"data.shard.ms",
		"eval_ms_p50", "eval.accuracy.full.ms", "eval.accuracy.S1.ms", "eval.accuracy.M1.ms", "eval.accuracy.L1.ms",
		"runtime.gc.cpu_frac", "runtime.heap.live_mb",
		"trace.overhead_ms",
	}
	declared = func() map[string]bool {
		m := map[string]bool{}
		for _, n := range append(append([]string(nil), endToEndMetrics...), perLayerMetrics...) {
			m[n] = true
		}
		return m
	}()
)

func (r *report) set(name string, v float64, unit string) {
	if !declared[name] {
		r.problemf("metric %s is not declared", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problemf("metric %s is not finite", name)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadOrder, "|")+"|all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds the run measures")
	flag.IntVar(&trace, "trace", 0, "1: traced run and kernel replay, reporting per-layer metrics")
	flag.Parse()
	o.spansDir = filepath.Join(".bench_build", "spans")
	o.trace = trace == 1
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	wl, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s|all, -seconds > 0 and -trace 0|1\n", strings.Join(workloadOrder, "|"))
		os.Exit(2)
	}
	rep := execute(wl, o)
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, p := range rep.problems {
		fmt.Println("FAIL:", p)
	}
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process, so each one's
// peak RSS stays its own, and prints their output in turn.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	code := 0
	for _, name := range workloadOrder {
		fmt.Printf("== %s\n", name)
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// execute runs one workload and builds its report.
func execute(wl workload, o options) report {
	rep := report{result: result{Metrics: map[string]metric{}}}
	par := runtime.NumCPU()
	e := env{seed: o.seed, par: par}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2 // the untraced half, then the traced half
	}

	setups, sys, err := setUp(wl, e, !o.trace, &rep)
	if err != nil {
		rep.problemf("%s set-up: %v", wl.name, err)
		return finish(rep)
	}
	rt0 := readRuntime()
	w, err := measure(sys, nil, wl.evalEvery, budget, 0)
	rt1 := readRuntime()
	rep.Attempted, rep.Failed = w.attempted(), w.failed()
	if err != nil {
		rep.problemf("%s: %v", wl.name, err)
		sys.close()
		return finish(rep)
	}
	if !core.StateFinite(sys.global()) {
		rep.problemf("%s: global weights are not finite", wl.name)
	}
	rep.linef("%s seed %d: %d commits in %.1f s, closed loop, parallelism %d", wl.name, o.seed, w.commits, w.wall, par)
	if !o.trace {
		endToEnd(&rep, w, setups)
		sys.close()
		return finish(rep)
	}

	untracedHash := nn.HashState(sys.global())
	untracedP50 := median(w.commitMs)
	sys.close()
	rep.set("runtime.gc.cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "fraction")
	rep.set("runtime.heap.live_mb", rt1.liveBytes/1e6, "MB")
	rep.set("eval_ms_p50", median(w.evalMs), "ms")
	traced(&rep, wl, e, o, w.commits, untracedHash, untracedP50)
	return finish(rep)
}

// finish settles correctness from the problems found.
func finish(rep report) report {
	rep.Correct = len(rep.problems) == 0
	if rep.Attempted < 1 {
		rep.Attempted = 1
		if rep.Failed < 1 && !rep.Correct {
			rep.Failed = 1
		}
	}
	return rep
}

// setUp builds the workload's system, repeatedly when set-up is being
// measured, checks every build reaches the same weights, and returns the
// set-up times and the last build.
func setUp(wl workload, e env, measured bool, rep *report) ([]float64, system, error) {
	reps := wl.openReps
	if !measured {
		reps = 1
	}
	var setups []float64
	var sys system
	var first uint64
	for i := 0; i < reps; i++ {
		start := time.Now()
		s, err := openWarm(wl, e)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		h := nn.HashState(s.global())
		if i == 0 {
			first = h
			if wl.check != nil {
				if err := wl.check(e, s); err != nil {
					s.close()
					return nil, nil, err
				}
			}
		} else if h != first {
			rep.problemf("%s: same-seed set-ups reached weights %016x and %016x", wl.name, first, h)
		}
		if i < reps-1 {
			s.close()
		} else {
			sys = s
		}
	}
	if wl.setupProbe != nil && measured {
		setups = setups[:0]
		for i := 0; i < setupProbeReps; i++ {
			start := time.Now()
			if err := wl.setupProbe(e); err != nil {
				sys.close()
				return nil, nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
	}
	return setups, sys, nil
}

// openWarm builds a system and runs its warm-up commits.
func openWarm(wl workload, e env) (system, error) {
	s, err := wl.open(e)
	if err != nil {
		return nil, err
	}
	for i := 0; i < wl.warm; i++ {
		if err := s.commit(); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up commit %d: %w", i+1, err)
		}
	}
	return s, nil
}

// window is one measured stretch of closed-loop commits.
type window struct {
	commitMs, evalMs   []float64
	virtual            float64 // virtual seconds the commits advanced
	allocBytes, allocs float64
	before, after      counters
	commitWall, wall   float64 // seconds: inside commits, and in all
	start, end         int64   // tracer clock
	commits, errs      int
}

func (w window) attempted() int64 {
	return int64(w.commits+w.errs) + w.after.posts - w.before.posts
}

func (w window) failed() int64 {
	return int64(w.errs) + w.after.postFailed - w.before.postFailed
}

// opFailFrac is failed operations over attempted ones, where an operation
// is a commit or an HTTP dispatch. Simulated dropouts, device-fit
// failures and late uploads are ledger outcomes, not failures.
func (w window) opFailFrac() float64 {
	return ratio(float64(w.failed()), float64(w.attempted()))
}

// errorFrac is the share of HTTP dispatches that failed in transport.
func (w window) errorFrac() float64 {
	return ratio(float64(w.after.postFailed-w.before.postFailed), float64(w.after.posts-w.before.posts))
}

// measure runs commits until budget has passed (or exactly n commits when
// n > 0), evaluating every evalEvery commits when the system evaluates,
// and records each commit's wall time and allocations.
func measure(sys system, tr *tracer, evalEvery int, budget time.Duration, n int) (window, error) {
	w := window{before: sys.counters(), start: tr.now()}
	begin := time.Now()
	var m0, m1 runtime.MemStats
	for (n > 0 && w.commits < n) || (n == 0 && time.Since(begin) < budget) {
		virtual := sys.simTime()
		runtime.ReadMemStats(&m0)
		rootStart := tr.now()
		start := time.Now()
		err := sys.commit()
		took := time.Since(start)
		tr.root(spanCommit, rootStart, tr.now())
		runtime.ReadMemStats(&m1)
		if err != nil {
			w.errs++
			w.finish(sys, tr, begin)
			return w, fmt.Errorf("commit %d: %w", w.commits+1, err)
		}
		w.commits++
		w.commitMs = append(w.commitMs, float64(took)/1e6)
		w.commitWall += took.Seconds()
		w.virtual += sys.simTime() - virtual
		w.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		w.allocs += float64(m1.Mallocs - m0.Mallocs)
		if ev, ok := sys.(evaluator); ok && w.commits%evalEvery == 0 {
			rootStart := tr.now()
			start := time.Now()
			if err := ev.evaluate(); err != nil {
				w.finish(sys, tr, begin)
				return w, fmt.Errorf("evaluation after commit %d: %w", w.commits, err)
			}
			w.evalMs = append(w.evalMs, float64(time.Since(start))/1e6)
			tr.root(spanEval, rootStart, tr.now())
		}
	}
	w.finish(sys, tr, begin)
	return w, nil
}

func (w *window) finish(sys system, tr *tracer, begin time.Time) {
	w.wall = time.Since(begin).Seconds()
	w.end = tr.now()
	w.after = sys.counters()
}

// endToEnd reports the untraced end-to-end metrics.
func endToEnd(rep *report, w window, setups []float64) {
	n := float64(w.commits)
	t := tailOf(w.commitMs)
	rep.set("setup_s", median(setups), "s")
	rep.set("commit_ms_p50", median(w.commitMs), "ms")
	rep.set("commit_ms_tail", t.Value, "ms")
	rep.set("samples_per_s", ratio(w.after.samples-w.before.samples, w.commitWall), "1/s")
	rep.set("sim_s_per_wall_s", ratio(w.virtual, w.commitWall), "s/s")
	rep.set("alloc_mb_per_commit", ratio(w.allocBytes, n)/1e6, "MB")
	rep.set("allocs_per_commit", ratio(w.allocs, n), "count")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.set("wire_mb_per_commit", ratio(w.after.wire-w.before.wire, n)/1e6, "MB")
	rep.set("op_ok_frac", 1-w.opFailFrac(), "fraction")
	notes := map[string]string{
		"setup_s":        fmt.Sprintf("median of %d set-ups", len(setups)),
		"commit_ms_p50":  fmt.Sprintf("median of %d commits", t.N),
		"commit_ms_tail": fmt.Sprintf("p%d of %d commits", t.Percentile, t.N),
		"op_ok_frac":     fmt.Sprintf("%d of %d operations failed", w.failed(), w.attempted()),
	}
	rep.lines = append(rep.lines, metricLines(rep.Metrics, notes)...)
}

// metricLines renders metrics sorted by name, one per line.
func metricLines(ms map[string]metric, notes map[string]string) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		l := fmt.Sprintf("  %-26s %14.4f %-8s", n, ms[n].Value, ms[n].Unit)
		if note := notes[n]; note != "" {
			l += "  (" + note + ")"
		}
		out = append(out, strings.TrimRight(l, " "))
	}
	return out
}

// peakRSSMB is the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// runtimeSample is a reading of the Go runtime's CPU and heap metrics.
type runtimeSample struct {
	gcCPU, totalCPU, liveBytes float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	value := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: value(s[0].Value), totalCPU: value(s[1].Value), liveBytes: value(s[2].Value)}
}

// traced builds the workload afresh with tracing on, runs exactly the
// commits the untraced half ran, checks it reaches the same weights and
// that the program's own spans audit clean against its ledger, then
// reports the per-layer metrics of the traced run and the kernel replay.
func traced(rep *report, wl workload, e env, o options, commits int, untracedHash uint64, untracedP50 float64) {
	tr := newTracer()
	log := &spanLog{}
	e.tr = tr
	e.obs = obs.NewObserver(obs.NewMetrics(), log)
	if wl.codec != "" {
		// Every encode and decode — trainer and agents alike — goes through
		// the registered codec; the timed wrapper is bit-identical to it.
		c, err := wire.ByTag(wl.codec)
		if err != nil {
			rep.problemf("%v", err)
			return
		}
		wire.Register(wire.Timed(c, codecProbe{tr: tr}))
	}
	sys, err := openWarm(wl, e)
	if err != nil {
		rep.problemf("%s traced set-up: %v", wl.name, err)
		return
	}
	w, err := measure(sys, tr, wl.evalEvery, 0, commits)
	if err != nil {
		rep.problemf("%s traced: %v", wl.name, err)
		sys.close()
		return
	}
	if h := nn.HashState(sys.global()); h != untracedHash {
		rep.problemf("%s: traced run reached weights %016x, untraced %016x", wl.name, h, untracedHash)
	}
	inputs := sys.replay()
	ledger := sys.ledger()
	sys.close()

	auditor := analyze.NewAuditor(ledger)
	for _, sp := range log.all() {
		auditor.Add(sp)
	}
	if v := auditor.Finish(); len(v) > 0 {
		rep.problemf("%s: audit of the traced run's spans: %d violations, first: %s", wl.name, len(v), v[0])
	}

	spans := linkParents(tr.snapshot())
	layerMetrics(rep, wl, e, w, spans)
	tracedP50 := median(w.commitMs)
	rep.set("trace.overhead_ms", tracedP50-untracedP50, "ms")
	rep.linef("  tracing overhead: traced commit_ms_p50 %.3f ms − untraced %.3f ms = %+.3f ms", tracedP50, untracedP50, tracedP50-untracedP50)

	replayStart := time.Now()
	kernels, err := replayKernels(inputs)
	if err != nil {
		rep.problemf("%s kernel replay: %v", wl.name, err)
	}
	for name, v := range kernels {
		rep.set(name, v.Value, v.Unit)
	}
	rep.linef("  kernel replay: %.1f s", time.Since(replayStart).Seconds())

	path := filepath.Join(o.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, o.seed))
	if err := writeSpans(path, spans); err != nil {
		rep.problemf("writing spans: %v", err)
	} else {
		rep.linef("  %d spans written to %s", len(spans), path)
	}
	rep.lines = append(rep.lines, metricLines(rep.Metrics, nil)...)
}
