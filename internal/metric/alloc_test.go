package metric

import "testing"

// Once a column's slab reaches a row, writing the row's cell allocates
// nothing: the scope-at-a-time writers (profile correlation, the Callers
// View's AddView) stay allocation-free per cost.

func TestAddHitAllocs(t *testing.T) {
	v := rowView()
	v.Add(0, 1)
	if n := testing.AllocsPerRun(1000, func() { v.Add(0, 1) }); n != 0 {
		t.Errorf("Add to a resident cell allocates %v/op, want 0", n)
	}
}

func TestAddVectorAlignedAllocs(t *testing.T) {
	v, o := rowView(), rowView()
	o.Add(0, 1)
	o.Add(3, 2)
	v.AddView(o)
	if n := testing.AllocsPerRun(1000, func() { v.AddView(o) }); n != 0 {
		t.Errorf("AddView over resident columns allocates %v/op, want 0", n)
	}
}

// A tree under construction writes its rows in ascending order, and slabs
// grow geometrically: the write to the next row re-slices the column's slab
// within its capacity.
func TestAddAppendWithinCapacityAllocs(t *testing.T) {
	st := NewStore()
	v := NewView(st, PlaneBase, st.AddRow())
	v.Add(0, 1) // the slab starts with room for 64 rows
	if n := testing.AllocsPerRun(50, func() {
		v = NewView(st, PlaneBase, st.AddRow())
		v.Add(0, 1)
	}); n != 0 {
		t.Errorf("Add to the next row within the slab's capacity allocates %v/op, want 0", n)
	}
}
