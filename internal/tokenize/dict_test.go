package tokenize

import (
	"fmt"
	"reflect"
	"testing"
)

// TestDictFrozenCopyIsolated pins the copy-on-write contract: a frozen
// copy keeps every ID and answers the same after the writer interns
// more words, and a Freeze folds top into a new base once top passes an
// eighth of base, leaving the older copy's maps as they were.
func TestDictFrozenCopyIsolated(t *testing.T) {
	d := NewDict()
	for i := 0; i < 64; i++ {
		if id := d.Intern(fmt.Sprintf("w%d", i)); id != uint32(i) {
			t.Fatalf("w%d got ID %d, want %d", i, id, i)
		}
	}
	first := d.Freeze()
	base := reflect.ValueOf(first.base).Pointer()
	for i := 64; i < 80; i++ {
		d.Intern(fmt.Sprintf("w%d", i))
	}
	if d.Intern("w3") != 3 || d.Len() != 80 || first.Len() != 64 {
		t.Fatalf("re-intern or growth wrong: %d IDs, the frozen copy %d", d.Len(), first.Len())
	}
	if _, ok := first.ID("w70"); ok {
		t.Fatal("a frozen copy sees a later word")
	}
	second := d.Freeze()
	if reflect.ValueOf(second.base).Pointer() == base || len(second.top) != 0 {
		t.Error("a top past an eighth of base was not folded")
	}
	for i := 0; i < 80; i++ {
		w := fmt.Sprintf("w%d", i)
		if id, ok := second.ID(w); !ok || id != uint32(i) || second.Token(id) != w {
			t.Fatalf("%s: ID %d %v after the fold", w, id, ok)
		}
		if id, ok := first.ID(w); ok != (i < 64) || ok && id != uint32(i) {
			t.Fatalf("%s: the first copy answers %d %v", w, id, ok)
		}
	}
}

// TestDictRenumber: a renumbered dictionary holds exactly the held IDs,
// in ascending order of their old IDs, and leaves the old one as it was.
func TestDictRenumber(t *testing.T) {
	d := NewDict()
	for _, w := range []string{"a", "b", "c", "d", "e"} {
		d.Intern(w)
	}
	fresh, renum := d.Renumber([]bool{false, true, false, true, true})
	if fresh.Len() != 3 || d.Len() != 5 {
		t.Fatalf("%d IDs renumbered from %d, want 3 from 5", fresh.Len(), d.Len())
	}
	for old, w := range map[uint32]string{1: "b", 3: "d", 4: "e"} {
		if id, ok := fresh.ID(w); !ok || id != renum[old] || fresh.Token(id) != w {
			t.Errorf("%s: ID %d %v, renum %d", w, id, ok, renum[old])
		}
	}
	if renum[1] >= renum[3] || renum[3] >= renum[4] {
		t.Errorf("renumbering %v is not monotone", renum)
	}
	if _, ok := fresh.ID("a"); ok {
		t.Error("an unheld word survived")
	}
}
