package data

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// TestRecordCellsMatchMapModel drives records through seeded random Set
// sequences — null sets that delete, re-sets, clones mutated afterwards
// — beside a map[string]Value model, and checks after every step that
// the cells answer like the model: Get and Has per name, Fields strictly
// ascending with no null, Attrs the model's sorted keys, and no cell
// shared between a clone and its original.
func TestRecordCellsMatchMapModel(t *testing.T) {
	names := []string{"brand", "color", "id", "pid", "price", "title", "weight", "zz"}
	values := []Value{Null(), String("a"), String("b"), Number(1), Number(-0.5), Bool(true)}
	check := func(step int, r *Record, model map[string]Value) {
		t.Helper()
		for _, a := range append(names, "absent", "") {
			want, ok := model[a]
			if got := r.Get(a); got != want {
				t.Fatalf("step %d: Get(%q) = %v, want %v", step, a, got, want)
			}
			if got := r.Has(a); got != ok {
				t.Fatalf("step %d: Has(%q) = %v, want %v", step, a, got, ok)
			}
		}
		cells := r.Fields()
		for i, f := range cells {
			if f.Value.IsNull() {
				t.Fatalf("step %d: cell %q holds a null", step, f.Attr)
			}
			if i > 0 && cells[i-1].Attr >= f.Attr {
				t.Fatalf("step %d: cells not strictly ascending: %q then %q", step, cells[i-1].Attr, f.Attr)
			}
		}
		want := make([]string, 0, len(model))
		for a := range model {
			want = append(want, a)
		}
		slices.Sort(want)
		if got := r.Attrs(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Attrs() = %v, want %v", step, got, want)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, model := NewRecord("r", "s"), map[string]Value{}
		for step := 0; step < 200; step++ {
			if rng.Intn(10) == 0 {
				c, cm := r.Clone(), maps.Clone(model)
				if len(c.cells) > 0 && &c.cells[0] == &r.cells[0] {
					t.Fatalf("seed %d step %d: the clone shares its cells", seed, step)
				}
				a, v := names[rng.Intn(len(names))], values[1+rng.Intn(len(values)-1)]
				c.Set(a, v)
				cm[a] = v
				check(step, c, cm)
				check(step, r, model) // mutating the clone left the original alone
				if rng.Intn(2) == 0 {
					r, model = c, cm
				}
				continue
			}
			a, v := names[rng.Intn(len(names))], values[rng.Intn(len(values))]
			r.Set(a, v)
			if v.IsNull() {
				delete(model, a)
			} else {
				model[a] = v
			}
			check(step, r, model)
		}
	}
}

// TestRecordFootprint pins what a one-field record costs to hold: its
// header and one cell in two allocations, at most 192 bytes on average.
// A field map took about 816 bytes.
func TestRecordFootprint(t *testing.T) {
	const n = 10000
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%d", i)
	}
	v := String("a modest product title")
	recs := make([]*Record, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, id := range ids {
		recs[i] = NewRecord(id, "src").Set("title", v)
	}
	runtime.ReadMemStats(&after)
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("one-field record: %.1f B (header %d B, cell %d B)", perRecord, unsafe.Sizeof(Record{}), unsafe.Sizeof(Field{}))
	if perRecord > 192 {
		t.Errorf("a one-field record costs %.1f B, want at most 192", perRecord)
	}
	if allocs := testing.AllocsPerRun(100, func() { NewRecord("r", "src").Set("title", v) }); allocs > 2 {
		t.Errorf("a one-field record takes %v allocations, want at most 2", allocs)
	}
	runtime.KeepAlive(recs)
}
