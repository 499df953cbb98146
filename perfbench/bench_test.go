package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adaptivefl/internal/exp"
	"adaptivefl/internal/models"
	"adaptivefl/internal/tensor"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tailOf must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, pct int
		value  float64
	}{
		{n: 30, pct: 66, value: 20}, // rank 20 of 30 leaves 10 above it
		{n: 100, pct: 90, value: 90},
		{n: 11, pct: 9, value: 1},
		{n: 10, pct: 100, value: 10}, // too few samples: the maximum, at p100
		{n: 1, pct: 100, value: 1},
	} {
		got := tailOf(seq(tc.n))
		if got.Value != tc.value || got.Percentile != tc.pct || got.N != tc.n {
			t.Errorf("tailOf(%d samples) = %+v, want value %v at p%d of %d", tc.n, got, tc.value, tc.pct, tc.n)
		}
		above := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				above++
			}
		}
		if tc.n > tailBeyond && above != tailBeyond {
			t.Errorf("%d samples: %d above the tail, want %d", tc.n, above, tailBeyond)
		}
	}

	// The printed line carries the percentile and the sample count.
	rep := report{result: result{Metrics: map[string]metric{}}}
	endToEnd(&rep, window{commitMs: seq(30), commits: 30, commitWall: 1}, []float64{1})
	found := false
	for _, l := range rep.lines {
		if strings.Contains(l, "commit_ms_tail") && strings.Contains(l, "(p66 of 30 commits)") {
			found = true
		}
	}
	if !found {
		t.Errorf("no commit_ms_tail line with its percentile and count in:\n%s", strings.Join(rep.lines, "\n"))
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// TestAttributionAddsUp checks that self times of nested and concurrent
// spans add up to the root's wall time, with each instant charged to the
// deepest active span.
func TestAttributionAddsUp(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanCommit, Start: 0, End: 100, Root: true},
		{ID: 2, Name: spanRTT, Start: 10, End: 60, Tag: 7},
		{ID: 3, Name: spanAgent, Start: 20, End: 50, Tag: 7},
		{ID: 4, Name: spanDecode, Start: 30, End: 40},
		{ID: 5, Name: spanRTT, Start: 40, End: 130, Tag: 8}, // outlives the commit
		{ID: 6, Name: spanEval, Start: 150, End: 200, Root: true},
		{ID: 7, Name: spanEvalModel + ".full", Start: 160, End: 190},
	}
	linked := linkParents(spans)
	if linked[2].Parent != 2 {
		t.Errorf("agent span parent = %d, want the round trip of its flight (2)", linked[2].Parent)
	}
	if linked[3].Parent != 3 {
		t.Errorf("decode span parent = %d, want the innermost container (3)", linked[3].Parent)
	}
	if linked[6].Parent != 6 {
		t.Errorf("eval model span parent = %d, want its eval root (6)", linked[6].Parent)
	}
	a := attribute(linked, spanCommit)
	want := map[string]int64{spanCommit: 10, spanRTT: 10 + 10 + 40, spanAgent: 20, spanDecode: 10}
	var sum int64
	for name, v := range a.Self {
		sum += v
		if v != want[name] {
			t.Errorf("self[%s] = %d, want %d", name, v, want[name])
		}
	}
	if a.Roots != 1 || a.Wall != 100 || sum != a.Wall {
		t.Errorf("roots %d wall %d sum %d, want 1, 100, 100", a.Roots, a.Wall, sum)
	}
}

// TestLeavesRebuildBlocks checks the replay finds every leaf of both
// replayed architectures, rebuilding MobileNetV2's blocks at their real
// strides.
func TestLeavesRebuildBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		arch    models.Arch
		dataset string
	}{{models.MobileNetV2, "widar"}, {models.VGG16, "cifar10"}} {
		mcfg, err := exp.ModelConfig(tc.arch, tc.dataset, exp.QuickScale())
		if err != nil {
			t.Fatal(err)
		}
		m, err := models.Build(mcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := leaves(m, tensor.Randn(rng, 1, 2, mcfg.InChannels, mcfg.InputSize, mcfg.InputSize), rng)
		if err != nil {
			t.Fatalf("%s: %v", tc.arch, err)
		}
		kinds := map[string]int{}
		for _, l := range ls {
			kinds[l.kind]++
		}
		convs, dws := 0, 0
		for _, p := range m.Params() {
			switch {
			case strings.HasSuffix(p.Name, ".dw.weight"):
				dws++
			case strings.HasSuffix(p.Name, ".weight") && len(p.Val.Shape) == 4:
				convs++
			}
		}
		if kinds["conv"] != convs || kinds["dwconv"] != dws || kinds["bn"] == 0 || kinds["relu"] == 0 {
			t.Errorf("%s: leaves %v, model has %d convs and %d depthwise convs", tc.arch, kinds, convs, dws)
		}
	}
}

// failingTransport fails the n-th POST it sees and passes everything else
// to next.
type failingTransport struct {
	next  http.RoundTripper
	n     int64
	posts atomic.Int64
}

func (f *failingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && f.posts.Add(1) == f.n {
		return nil, errors.New("injected transport failure")
	}
	return f.next.RoundTrip(req)
}

// TestFailureAccounting drives a small fednet federation whose transport
// fails one dispatch: the commit that waits on it fails, and both
// op_fail_frac and fednet.error_frac count it.
func TestFailureAccounting(t *testing.T) {
	e := env{seed: 5, par: 2}
	sc := fednetScale(e)
	sc.Clients, sc.K = 5, 2
	fed, err := exp.BuildFederation(models.VGG16, "cifar10", exp.IID, exp.DefaultProportions, sc)
	if err != nil {
		t.Fatal(err)
	}
	ft := &failingTransport{next: http.DefaultTransport.(*http.Transport).Clone(), n: 1}
	sys, err := openFednetWith(e, sc, fed, ft)
	if err != nil {
		t.Fatal(err)
	}
	w, err := measure(sys, nil, 100, 0, 3)
	sys.close()
	if err == nil {
		t.Fatal("a failed dispatch did not fail its commit")
	}
	if w.errs != 1 || w.failed() != 2 {
		t.Errorf("failed ops = %d (commit errors %d), want 2 (the dispatch and its commit)", w.failed(), w.errs)
	}
	if got := w.opFailFrac(); got <= 0 || got > 1 {
		t.Errorf("op_fail_frac = %v, want in (0, 1]", got)
	}
	posts := w.after.posts - w.before.posts
	if got, want := w.errorFrac(), 1/float64(posts); got != want {
		t.Errorf("fednet.error_frac = %v, want 1/%d", got, posts)
	}
	rep := report{result: result{Metrics: map[string]metric{}}}
	endToEnd(&rep, w, []float64{1})
	if got := rep.Metrics["op_ok_frac"].Value; got >= 1 {
		t.Errorf("op_ok_frac = %v after a failure, want < 1", got)
	}
	layerMetrics(&rep, workloads["fednet-vgg16-q8"], e, w, nil)
	if got := rep.Metrics["fednet.error_frac"].Value; got <= 0 {
		t.Errorf("reported fednet.error_frac = %v, want > 0", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the names are checked against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricNamesMatchBenchmarkFile runs one short untraced and one short
// traced fednet run and checks that every metric they emit is declared in
// BENCHMARK.json with the same unit, and that every declared metric is
// emitted.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	want := append([]string(nil), workloadOrder...)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	check := func(trace bool, declaredUnits map[string]string) {
		o := options{workload: "fednet-vgg16-q8", seed: 2, seconds: 2, trace: trace, spansDir: t.TempDir()}
		start := time.Now()
		rep := execute(workloads[o.workload], o)
		if !rep.Correct {
			t.Fatalf("trace=%v run not correct: %v", trace, rep.problems)
		}
		for name, m := range rep.Metrics {
			unit, ok := declaredUnits[name]
			if !ok {
				t.Errorf("trace=%v emits %s, not declared in BENCHMARK.json", trace, name)
			} else if unit != m.Unit {
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
			}
		}
		for name := range declaredUnits {
			if _, ok := rep.Metrics[name]; !ok {
				t.Errorf("trace=%v does not emit declared metric %s", trace, name)
			}
		}
		t.Logf("trace=%v run took %v", trace, time.Since(start).Round(time.Millisecond))
	}
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	check(false, e2e)
	check(true, layers)
}

// TestPopSimRecomposition checks the benchmark's popsim, rebuilt from the
// public constructors, reaches exp.RunPopSim's weights at a short horizon.
func TestPopSimRecomposition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a million-client simulation")
	}
	e := env{seed: 4, par: 2}
	s, err := openPop(e)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if err := checkPopSim(e, s); err != nil {
		t.Fatal(err)
	}
}
