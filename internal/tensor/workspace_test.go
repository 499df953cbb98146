package tensor

import "testing"

// step takes the buffers of one fake training step and fills each with
// its index, so overlapping buffers would show as clobbered values.
func step(w *Workspace, shapes [][]int) []*Tensor {
	w.Reset()
	out := make([]*Tensor, len(shapes))
	for i, sh := range shapes {
		out[i] = w.Take(sh...)
		out[i].Fill(float64(i + 1))
	}
	return out
}

func TestWorkspaceBuffersDisjoint(t *testing.T) {
	shapes := [][]int{{2, 3}, {4}, {1, 2, 2}, {5, 1}}
	w := NewWorkspace()
	for round := 0; round < 3; round++ {
		ts := step(w, shapes)
		for i, x := range ts {
			if !SameShape(x, New(shapes[i]...)) {
				t.Fatalf("round %d buffer %d shape %v, want %v", round, i, x.Shape, shapes[i])
			}
			for _, v := range x.Data {
				if v != float64(i+1) {
					t.Fatalf("round %d buffer %d clobbered: %v", round, i, x.Data)
				}
			}
			if cap(x.Data) != len(x.Data) {
				t.Fatalf("round %d buffer %d can grow into its neighbour", round, i)
			}
		}
	}
	if got := len(w.slab); got != 6+4+4+5 {
		t.Fatalf("slab holds %d elements, want one step's 19", got)
	}
}

// TestWorkspaceGrowsToLargestStep checks that a larger step regrows the
// slab once, that headers a layer may still hold stop pinning the spilled
// buffers, and that a smaller step then fits without growing the slab.
func TestWorkspaceGrowsToLargestStep(t *testing.T) {
	w := NewWorkspace()
	step(w, [][]int{{8}})
	spilled := step(w, [][]int{{8}, {16}})
	w.Reset()
	if len(w.slab) != 24 {
		t.Fatalf("slab %d elements after a 24-element step", len(w.slab))
	}
	for i, x := range spilled {
		if x.Data != nil {
			t.Fatalf("header %d still holds its buffer after the slab regrew", i)
		}
	}
	step(w, [][]int{{4}})
	w.Reset()
	if len(w.slab) != 24 {
		t.Fatalf("a smaller step shrank the slab to %d", len(w.slab))
	}
}

func TestWorkspaceSteadyStateAllocatesNothing(t *testing.T) {
	w := NewWorkspace()
	run := func() {
		w.Reset()
		w.Take(3, 4)
		w.Zeros(2, 2, 2)
		w.Take(7)
	}
	run()
	run()
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("steady-state step allocates %v times", n)
	}
}

func TestWorkspaceZerosAndNil(t *testing.T) {
	w := NewWorkspace()
	step(w, [][]int{{6}})
	w.Reset()
	z := w.Zeros(2, 3)
	for _, v := range z.Data {
		if v != 0 {
			t.Fatalf("Zeros returned a dirty buffer: %v", z.Data)
		}
	}
	var nilWS *Workspace
	nilWS.Reset() // must not panic
	for _, x := range []*Tensor{nilWS.Take(2, 2), nilWS.Zeros(3)} {
		if x.Sum() != 0 {
			t.Fatalf("nil workspace returned a dirty tensor: %v", x.Data)
		}
	}
}

func TestSetViewReusesHeader(t *testing.T) {
	buf := make([]float64, 12)
	var v Tensor
	v.SetView(buf[:6], 2, 3)
	shape := &v.Shape[0]
	v.SetView(buf[6:], 3, 2)
	if &v.Shape[0] != shape || v.Shape[0] != 3 || &v.Data[0] != &buf[6] {
		t.Fatalf("SetView did not re-aim the header: %v", v.Shape)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetView accepted a mismatched shape")
		}
	}()
	v.SetView(buf, 5)
}
