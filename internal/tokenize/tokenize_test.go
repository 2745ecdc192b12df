package tokenize

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"  Hello,   World! ", "hello world"},
		{"iPhone-12 (Pro)", "iphone 12 pro"},
		{"", ""},
		{"---", ""},
		{"ÀÉÎ", "àéî"},
		{"a1B2", "a1b2"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool { return Normalize(Normalize(s)) == Normalize(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzNormalize checks Normalize's ASCII byte path against the rune
// path every input could take, and Words against splitting the result.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"", " ", "MiXeD CaSe Words", "nova camera pro 300", "a1B2c3", "123--456__789",
		"!!!...???", "trailing sep, ", "trailing  ", " lead", "tab\there\nnewline",
		"caf\u00e9 cr\u00e8me", "ascii then \xc3\xa9 mid", "ABC\x80def", "\xff\xfe bad utf8",
		"half \xe2\x82 rune", "\x7f\x00 controls", "Z", "z", "0", "a  b   c",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Normalize(s), normalizeRunes(s)
		if got != want {
			t.Fatalf("Normalize(%q) = %q, rune path %q", s, got, want)
		}
		words := Words(s)
		if want == "" {
			if words != nil {
				t.Fatalf("Words(%q) = %q, want nil", s, words)
			}
			return
		}
		if !reflect.DeepEqual(words, strings.Split(want, " ")) {
			t.Fatalf("Words(%q) = %q, want %q split", s, words, want)
		}
	})
}

func TestWords(t *testing.T) {
	if got := Words("The quick, brown fox!"); !reflect.DeepEqual(got, []string{"the", "quick", "brown", "fox"}) {
		t.Errorf("Words = %v", got)
	}
	if Words("   ") != nil {
		t.Error("blank input should give nil")
	}
}

func TestQGrams(t *testing.T) {
	got := QGrams("ab", 2)
	want := []string{"#a", "ab", "b$"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("QGrams(ab,2) = %v, want %v", got, want)
	}
	if QGrams("x", 0) != nil {
		t.Error("q<=0 must return nil")
	}
	if got := QGrams("abc", 1); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("unigrams = %v", got)
	}
}

func TestQGramCountProperty(t *testing.T) {
	// For non-empty normalised strings, #grams = len + q - 1.
	f := func(s string) bool {
		const q = 3
		n := Normalize(s)
		grams := QGrams(s, q)
		if n == "" {
			return grams == nil
		}
		return len(grams) == len([]rune(n))+q-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStripStopWords(t *testing.T) {
	got := StripStopWords([]string{"the", "lord", "of", "rings"})
	if !reflect.DeepEqual(got, []string{"lord", "rings"}) {
		t.Errorf("StripStopWords = %v", got)
	}
}

func TestPrefixAndFingerprint(t *testing.T) {
	if got := Prefix("Hello World", 3); got != "hel" {
		t.Errorf("Prefix = %q", got)
	}
	if got := Prefix("hi", 10); got != "hi" {
		t.Errorf("short Prefix = %q", got)
	}
	if Fingerprint("smith, John") != Fingerprint("John SMITH") {
		t.Error("fingerprint must be order- and case-insensitive")
	}
	if Fingerprint("a b") == Fingerprint("a c") {
		t.Error("different token sets must differ")
	}
}

func TestCorpusIDF(t *testing.T) {
	c := NewCorpus()
	docs := []string{"apple banana", "apple cherry", "apple banana date"}
	for _, d := range docs {
		c.Add(d)
	}
	if c.NumDocs() != 3 {
		t.Fatalf("NumDocs = %d", c.NumDocs())
	}
	if c.DocFreq("apple") != 3 || c.DocFreq("banana") != 2 || c.DocFreq("date") != 1 {
		t.Error("document frequencies wrong")
	}
	if !(c.IDF("date") > c.IDF("banana") && c.IDF("banana") > c.IDF("apple")) {
		t.Error("rarer words must have higher IDF")
	}
	if c.IDF("unseen") < c.IDF("date") {
		t.Error("unseen words must have max IDF")
	}
}

func TestVectorIsUnitNorm(t *testing.T) {
	c := NewCorpus()
	c.Add("red shoe")
	c.Add("blue shoe")
	v := c.Vector("red shoe red")
	var norm float64
	for _, w := range v {
		norm += w.W * w.W
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("vector norm² = %f, want 1", norm)
	}
	if Dot(v, v) < 0.999 {
		t.Error("self-dot of unit vector must be ~1")
	}
}

func TestDotDisjoint(t *testing.T) {
	c := NewCorpus()
	c.Add("aa bb")
	c.Add("cc dd")
	if got := Dot(c.Vector("aa bb"), c.Vector("cc dd")); got != 0 {
		t.Errorf("disjoint dot = %f, want 0", got)
	}
}

func TestVectorDeterministicOrder(t *testing.T) {
	c := NewCorpus()
	c.Add("z a m")
	v := c.Vector("z a m")
	for i := 1; i < len(v); i++ {
		if strings.Compare(v[i-1].Term, v[i].Term) >= 0 {
			t.Fatalf("vector terms not sorted: %v", v)
		}
	}
}

// TestVectorBitStable: a vector's weights do not depend on map order —
// recomputing one gives the same bits every time.
func TestVectorBitStable(t *testing.T) {
	c := NewCorpus()
	text := "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu alpha beta"
	c.Add(text)
	c.Add("alpha gamma eta")
	c.Add("kappa mu")
	want := c.Vector(text)
	for i := 0; i < 50; i++ {
		got := c.Vector(text)
		for j := range want {
			if got[j].Term != want[j].Term || math.Float64bits(got[j].W) != math.Float64bits(want[j].W) {
				t.Fatalf("call %d: weight %d is %v (%s), first call %v (%s)", i, j, got[j].W, got[j].Term, want[j].W, want[j].Term)
			}
		}
	}
}
