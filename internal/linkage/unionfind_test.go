package linkage

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind()
	uf.Union("a", "b")
	uf.Union("c", "d")
	if !uf.Same("a", "b") || !uf.Same("c", "d") {
		t.Fatal("direct unions lost")
	}
	if uf.Same("a", "c") {
		t.Fatal("distinct sets merged")
	}
	uf.Union("b", "c")
	if !uf.Same("a", "d") {
		t.Fatal("transitive union lost")
	}
	if uf.Len() != 4 {
		t.Errorf("Len = %d", uf.Len())
	}
}

func TestUnionFindSets(t *testing.T) {
	uf := NewUnionFind()
	uf.Union("x", "y")
	uf.Add("z")
	sets := uf.Sets()
	if len(sets) != 2 {
		t.Fatalf("sets = %v", sets)
	}
	if len(sets[0]) != 2 || sets[0][0] != "x" || sets[0][1] != "y" {
		t.Errorf("first set = %v", sets[0])
	}
	if len(sets[1]) != 1 || sets[1][0] != "z" {
		t.Errorf("second set = %v", sets[1])
	}
}

func TestUnionFindIdempotentUnion(t *testing.T) {
	uf := NewUnionFind()
	uf.Union("a", "b")
	uf.Union("a", "b")
	uf.Union("b", "a")
	if got := len(uf.Sets()); got != 1 {
		t.Errorf("sets = %d, want 1", got)
	}
}

// ringOf walks the member ring from id's slot.
func ringOf(uf *UnionFind, id string) []string {
	s := uf.slot[id]
	out := []string{uf.ids[s]}
	for m := uf.next[s]; m != s; m = uf.next[m] {
		out = append(out, uf.ids[m])
	}
	sort.Strings(out)
	return out
}

func TestUnionFindEquivalenceProperties(t *testing.T) {
	// Property: under a random sequence of unions, adds and removals the
	// forest agrees with a naive id → label model — Same is the
	// equivalence relation Sets() shows, every member's ring is exactly
	// its set, Len counts live IDs only, and an ID that takes over a
	// removed ID's slot starts alone. ID 0 is the empty string.
	name := func(i int) string {
		if i == 0 {
			return ""
		}
		return fmt.Sprintf("n%d", i)
	}
	f := func(ops []uint16) bool {
		uf := NewUnionFind()
		label, fresh, peak := map[string]int{}, 0, 0
		add := func(id string) {
			uf.Add(id)
			if _, ok := label[id]; !ok {
				fresh++
				label[id] = fresh
			}
		}
		for _, op := range ops {
			a, b := name(int(op)%12), name(int(op>>4)%12)
			switch (op >> 8) % 4 {
			case 0, 1:
				add(a)
				add(b)
				uf.Union(a, b)
				for id, l := range label {
					if l == label[b] && id != b {
						label[id] = label[a]
					}
				}
				label[b] = label[a]
			case 2:
				add(a)
			case 3:
				var want []string
				if la, live := label[a]; live {
					for id, l := range label {
						if l == la && id != a {
							want = append(want, id)
						}
					}
				}
				sort.Strings(want)
				for _, id := range want {
					fresh++
					label[id] = fresh
				}
				delete(label, a)
				if got := uf.remove(a); !reflect.DeepEqual(got, want) {
					t.Logf("remove(%q) dissolved %q, the model %q", a, got, want)
					return false
				}
			}
			if len(label) > peak {
				peak = len(label)
			}
			if uf.Len() != len(label) || len(uf.ids) > peak {
				t.Logf("Len %d over %d slots for %d live IDs (peak %d)", uf.Len(), len(uf.ids), len(label), peak)
				return false
			}
			groups := map[int][]string{}
			for id, l := range label {
				groups[l] = append(groups[l], id)
			}
			want := make([][]string, 0, len(groups))
			for _, g := range groups {
				sort.Strings(g)
				want = append(want, g)
			}
			sort.Slice(want, func(i, j int) bool { return want[i][0] < want[j][0] })
			if got := uf.Sets(); !reflect.DeepEqual(got, want) {
				t.Logf("Sets %q, the model %q", got, want)
				return false
			}
			for a, la := range label {
				if ring := ringOf(uf, a); !reflect.DeepEqual(ring, groups[la]) {
					t.Logf("ring of %q is %q, its set %q", a, ring, groups[la])
					return false
				}
				for b, lb := range label {
					if uf.Same(a, b) != (la == lb) {
						t.Logf("Same(%q, %q) = %v", a, b, la != lb)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
