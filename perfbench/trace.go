package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names. Roots are recorded by measure around each closed-loop
// commit and each evaluation; every other span is a call into one layer,
// timed from the benchmark's side of a public seam.
const (
	spanCommit    = "sched.step" // one Runner.Round / Engine.Step / Hierarchy.Step
	spanEval      = "eval"
	spanPlan      = "core.plan"   // PlanSlots + OpenFlight + Plan (step-API drive)
	spanTrain     = "core.train"  // Execute, or a sampled executor-busy interval
	spanRecord    = "core.record" // Release + Record (step-API drive)
	spanApply     = "agg.apply"   // ApplyUpdates (step-API drive)
	spanPop       = "core.population"
	spanShard     = "data.shard"
	spanRTT       = "fednet.rtt"
	spanAgent     = "fednet.agent"
	spanEncode    = "wire.encode"
	spanDecode    = "wire.decode"
	spanEvalModel = "eval.accuracy"
)

// span is one timed interval. Parent is the ID of the span that caused
// it; 0 means a root or a parent still to be inferred from containment.
// Tag carries a flight ID (fednet spans) or 1 for a population call that
// materialised a client.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Tag    int64  `json:"tag,omitempty"`
	Root   bool   `json:"root,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced path: every method is a no-op.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock in nanoseconds since the tracer was built.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, start, end, tag int64) int {
	return t.record(span{Name: name, Start: start, End: end, Tag: tag})
}

// root records a finished root span (a commit or an evaluation).
func (t *tracer) root(name string, start, end int64) int {
	return t.record(span{Name: name, Start: start, End: end, Root: true})
}

func (t *tracer) record(sp span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp.ID = len(t.spans) + 1
	t.spans = append(t.spans, sp)
	return sp.ID
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes every span, one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// linkParents fills in every missing parent. An agent span is linked to
// the client round trip that carried its flight (the k-th agent span of a
// flight to its k-th round trip, so a 412 resend pairs with its own
// attempt). Any other span's parent is the innermost span that contains
// it: in (start ascending, end descending) order a container always comes
// first, so the latest earlier span that contains it is the innermost
// one, and no cycle can form. Spans are returned in ID order.
func linkParents(spans []span) []span {
	out := append([]span(nil), spans...)

	rtts := map[int64][]int{}
	agents := map[int64][]int{}
	for i, sp := range out {
		switch sp.Name {
		case spanRTT:
			rtts[sp.Tag] = append(rtts[sp.Tag], i)
		case spanAgent:
			agents[sp.Tag] = append(agents[sp.Tag], i)
		}
	}
	for flight, as := range agents {
		rs := rtts[flight]
		sort.Slice(rs, func(a, b int) bool { return out[rs[a]].Start < out[rs[b]].Start })
		sort.Slice(as, func(a, b int) bool { return out[as[a]].Start < out[as[b]].Start })
		for k := 0; k < len(as) && k < len(rs); k++ {
			out[as[k]].Parent = out[rs[k]].ID
		}
	}

	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := out[order[a]], out[order[b]]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.End != y.End {
			return x.End > y.End
		}
		return x.ID < y.ID
	})
	var open []int // spans that may still contain a later one
	for _, i := range order {
		sp := &out[i]
		kept := open[:0]
		for _, j := range open {
			if out[j].End >= sp.Start {
				kept = append(kept, j)
			}
		}
		open = kept
		if !sp.Root && sp.Parent == 0 {
			for k := len(open) - 1; k >= 0; k-- {
				c := &out[open[k]]
				if c.Start <= sp.Start && c.End >= sp.End {
					sp.Parent = c.ID
					break
				}
			}
		}
		open = append(open, i)
	}
	return out
}

// attribution is where the wall time of a set of root spans went.
type attribution struct {
	Roots int
	Wall  int64            // summed root wall time
	Self  map[string]int64 // summed self time per span name
}

// attribute splits the wall time of every root span named rootName among
// the spans active during it: each instant goes to the deepest span
// active then (the latest-started on a tie), or to the root itself when
// none is. Candidates are the root's descendants plus the spans no root
// caused — a semiasync flight's round trip outlives the commit that
// dispatched it — clipped to the root's interval; descendants of other
// roots (evaluations) are left out. Concurrent spans therefore share an
// instant rather than double-count it, and the self times of one root
// always add up to its wall time exactly.
func attribute(spans []span, rootName string) attribution {
	res := attribution{Self: map[string]int64{}}
	depth := make([]int, len(spans)+1)
	rootOf := make([]int, len(spans)+1)
	done := make([]bool, len(spans)+1)
	var walk func(id int)
	walk = func(id int) {
		if done[id] {
			return
		}
		done[id] = true
		sp := spans[id-1]
		switch {
		case sp.Root:
			depth[id], rootOf[id] = 0, id
		case sp.Parent == 0:
			depth[id], rootOf[id] = 1, 0
		default:
			walk(sp.Parent)
			depth[id], rootOf[id] = depth[sp.Parent]+1, rootOf[sp.Parent]
		}
	}
	for _, sp := range spans {
		walk(sp.ID)
	}
	type edge struct {
		t     int64
		id    int
		start bool
	}
	for _, sp := range spans {
		if !sp.Root || sp.Name != rootName {
			continue
		}
		res.Roots++
		res.Wall += sp.End - sp.Start
		var edges []edge
		for _, c := range spans {
			if c.Root || (rootOf[c.ID] != 0 && rootOf[c.ID] != sp.ID) {
				continue
			}
			s, e := max64(c.Start, sp.Start), min64(c.End, sp.End)
			if e <= s {
				continue
			}
			edges = append(edges, edge{s, c.ID, true}, edge{e, c.ID, false})
		}
		sort.Slice(edges, func(a, b int) bool { return edges[a].t < edges[b].t })
		active := map[int]bool{}
		prev := sp.Start
		charge := func(until int64) {
			if until <= prev {
				return
			}
			best := 0
			for id := range active {
				if best == 0 || depth[id] > depth[best] ||
					(depth[id] == depth[best] && (spans[id-1].Start > spans[best-1].Start ||
						(spans[id-1].Start == spans[best-1].Start && id > best))) {
					best = id
				}
			}
			name := sp.Name
			if best != 0 {
				name = spans[best-1].Name
			}
			res.Self[name] += until - prev
			prev = until
		}
		for _, e := range edges {
			charge(e.t)
			if e.start {
				active[e.id] = true
			} else {
				delete(active, e.id)
			}
		}
		charge(sp.End)
	}
	return res
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
