package metric

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegistryAddRaw(t *testing.T) {
	r := NewRegistry()
	d, err := r.AddRaw("PAPI_TOT_CYC", "cycles", 1000)
	if err != nil {
		t.Fatalf("AddRaw: %v", err)
	}
	if d.ID != 0 || d.Kind != Raw || d.Period != 1000 {
		t.Fatalf("bad descriptor: %+v", d)
	}
	if r.ByName("PAPI_TOT_CYC") != d || r.ByID(0) != d {
		t.Fatal("lookup mismatch")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	if _, err := r.AddRaw("c", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddRaw("c", "cycles", 1); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestRegistryRejectsZeroPeriod(t *testing.T) {
	r := NewRegistry()
	if _, err := r.AddRaw("c", "cycles", 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestRegistryRejectsEmptyName(t *testing.T) {
	r := NewRegistry()
	if _, err := r.AddRaw("", "cycles", 1); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestRegistryDerivedValidatesRefs(t *testing.T) {
	r := NewRegistry()
	if _, err := r.AddRaw("cyc", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddDerived("waste", "$0*4 - $1"); err == nil {
		t.Fatal("forward column reference accepted")
	}
	if _, err := r.AddDerived("double", "$0*2"); err != nil {
		t.Fatalf("valid derived rejected: %v", err)
	}
}

func TestRegistrySummaryNames(t *testing.T) {
	r := NewRegistry()
	if _, err := r.AddRaw("cyc", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	d, err := r.AddSummary(0, OpMean)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "cyc (mean)" || d.Kind != Summary || d.Source != 0 {
		t.Fatalf("bad summary descriptor: %+v", d)
	}
	if _, err := r.AddSummary(99, OpMax); err == nil {
		t.Fatal("summary of unknown column accepted")
	}
}

// rowView returns the Base view of a fresh row in its own store, behind a
// few rows it must never touch.
func rowView() *View {
	st := NewStore()
	for i := 0; i < 3; i++ {
		st.AddRow()
	}
	v := NewView(st, PlaneBase, st.AddRow())
	return &v
}

func entries(v *View) map[int]float64 {
	got := map[int]float64{}
	v.Range(func(id int, x float64) { got[id] = x })
	return got
}

func TestVectorBasics(t *testing.T) {
	v := rowView()
	if v.Len() != 0 || v.Get(3) != 0 {
		t.Fatal("fresh row misbehaves")
	}
	v.Set(3, 1.5)
	v.Set(1, 2)
	v.Add(3, 0.5)
	if got := v.Get(3); got != 2 {
		t.Fatalf("Get(3) = %g, want 2", got)
	}
	if got := v.Get(1); got != 2 {
		t.Fatalf("Get(1) = %g, want 2", got)
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	// A cell set to zero is an absent entry (the blank-zero rule).
	v.Set(3, 0)
	if v.Get(3) != 0 || v.Len() != 1 {
		t.Fatal("zero entry retained")
	}
	// So is one an Add cancels.
	v.Add(1, -2)
	if v.Len() != 0 {
		t.Fatalf("row not empty after cancel: %v", v.String())
	}
	// The neighbouring rows and planes were never written.
	for r := int32(0); r < 3; r++ {
		for _, p := range []Plane{PlaneBase, PlaneIncl, PlaneExcl} {
			if o := NewView(v.Store(), p, r); o.Len() != 0 {
				t.Fatalf("row %d plane %d picked up %v", r, p, o.String())
			}
		}
	}
}

func TestVectorRangeOrdered(t *testing.T) {
	v := rowView()
	for _, id := range []int{9, 2, 5, 0, 7} {
		v.Set(id, float64(id)+0.5)
	}
	var ids []int
	v.Range(func(id int, x float64) {
		ids = append(ids, id)
		if x != float64(id)+0.5 {
			t.Fatalf("value mismatch at %d: %g", id, x)
		}
	})
	if !sort.IntsAreSorted(ids) || len(ids) != 5 {
		t.Fatalf("Range not the five entries in ascending order: %v", ids)
	}
	if got, want := v.String(), "{0:0.5 2:2.5 5:5.5 7:7.5 9:9.5}"; got != want {
		t.Fatalf("String = %s, want %s", got, want)
	}
}

func TestVectorAddVector(t *testing.T) {
	a, b := rowView(), rowView()
	a.Set(0, 1)
	a.Set(2, 2)
	b.Set(2, 3)
	b.Set(5, 4)
	b.Set(0, -1) // cancels a's entry
	a.AddView(b)
	if got, want := a.String(), "{2:5 5:4}"; got != want {
		t.Fatalf("AddView = %s, want %s", got, want)
	}
	if got, want := b.String(), "{0:-1 2:3 5:4}"; got != want {
		t.Fatalf("AddView changed its argument to %s, want %s", got, want)
	}
}

func TestVectorAddVectorIntoEmpty(t *testing.T) {
	a, b := rowView(), rowView()
	b.Set(1, 7)
	a.AddView(b)
	if a.Get(1) != 7 || a.Len() != 1 {
		t.Fatalf("AddView into an empty row: %s", a.String())
	}
	// The rows are independent afterwards.
	a.Set(1, 8)
	if b.Get(1) != 7 {
		t.Fatal("AddView aliased its argument")
	}
	a.AddView(rowView())
	if a.String() != "{1:8}" {
		t.Fatalf("AddView of an empty row changed the row to %s", a.String())
	}
}

// Property: AddView is column-wise addition, whichever row it is added to.
func TestVectorAddVectorProperty(t *testing.T) {
	f := func(xs, ys [8]int8) bool {
		a, b, c := rowView(), rowView(), rowView()
		for i := range xs {
			a.Set(i, float64(xs[i]))
			b.Set(i, float64(ys[i]))
		}
		c.AddView(b)
		c.AddView(a)
		a.AddView(b)
		for i := range xs {
			if sum := float64(xs[i]) + float64(ys[i]); a.Get(i) != sum || c.Get(i) != sum {
				return false
			}
		}
		return a.Len() == c.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a View agrees with a reference map under a random sequence of
// Set, Add, AddView and Reset.
func TestVectorMatchesMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v, o := rowView(), rowView()
		model, omodel := map[int]float64{}, map[int]float64{}
		put := func(m map[int]float64, id int, x float64) {
			if x == 0 {
				delete(m, id)
			} else {
				m[id] = x
			}
		}
		for i := 0; i < 200; i++ {
			id := rng.Intn(12)
			x := float64(rng.Intn(7) - 3)
			switch rng.Intn(12) {
			case 0, 1, 2, 3:
				v.Set(id, x)
				put(model, id, x)
			case 4, 5, 6, 7:
				v.Add(id, x)
				put(model, id, model[id]+x)
			case 8, 9:
				o.Add(id, x)
				put(omodel, id, omodel[id]+x)
			case 10:
				v.AddView(o)
				for id, x := range omodel {
					put(model, id, model[id]+x)
				}
			case 11:
				v.Reset()
				clear(model)
			}
		}
		if v.Len() != len(model) || !reflect.DeepEqual(entries(v), model) {
			return false
		}
		for id := 0; id < 12; id++ {
			if v.Get(id) != model[id] {
				return false
			}
		}
		// Range is ascending and never shows a zero.
		prev := -1
		ok := true
		v.Range(func(id int, x float64) {
			if id <= prev || x == 0 {
				ok = false
			}
			prev = id
		})
		return ok && reflect.DeepEqual(entries(o), omodel)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestZeroViewReadsEmptyWritesPanic pins the contract of a View bound to no
// store (a bare core.Node used as a sentinel): every read sees an empty
// row, every write panics and says where scopes that hold costs come from.
func TestZeroViewReadsEmptyWritesPanic(t *testing.T) {
	var v View
	if v.Get(0) != 0 || v.Len() != 0 || v.Store() != nil || v.String() != "{}" {
		t.Fatal("zero View does not read as an empty row")
	}
	v.Range(func(int, float64) { t.Fatal("zero View ranged over an entry") })
	v.Reset()
	v.Add(0, 0) // adding nothing writes nothing
	rowView().AddView(&v)

	src := rowView()
	src.Set(0, 1)
	for name, write := range map[string]func(){
		"Set":     func() { v.Set(0, 1) },
		"Add":     func() { v.Add(0, 1) },
		"AddView": func() { v.AddView(src) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "core.Node.Child") {
					t.Fatalf("%s through the zero View: recovered %q, want a panic naming core.Node.Child", name, msg)
				}
			}()
			write()
		}()
	}
}
