package similarity

import (
	"testing"
	"time"

	"repro/internal/data"
)

func TestNumeric(t *testing.T) {
	if Numeric(100, 100, 0) != 1 {
		t.Error("equal numbers must be 1")
	}
	if Numeric(0, 0, 0) != 1 {
		t.Error("two zeros must be 1")
	}
	if got := Numeric(100, 200, 0); got != 0 {
		t.Errorf("100 vs 200 at default scale = %f, want 0", got)
	}
	near := Numeric(100, 101, 0)
	far := Numeric(100, 140, 0)
	if !(near > far && far > 0) {
		t.Errorf("decay broken: near=%f far=%f", near, far)
	}
}

func TestValuesTyped(t *testing.T) {
	if got := Values(data.Number(10), data.Number(10), nil); got != 1 {
		t.Errorf("equal numbers = %f", got)
	}
	if got := Values(data.Bool(true), data.Bool(false), nil); got != 0 {
		t.Errorf("bool mismatch = %f", got)
	}
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	near := Values(data.Time(t0), data.Time(t0.AddDate(0, 0, 30)), nil)
	far := Values(data.Time(t0), data.Time(t0.AddDate(3, 0, 0)), nil)
	if !(near > 0.9 && far == 0) {
		t.Errorf("time decay: near=%f far=%f", near, far)
	}
	if got := Values(data.Null(), data.String("x"), nil); got != 0.5 {
		t.Errorf("null vs value should be neutral 0.5, got %f", got)
	}
	// Cross-kind falls back to half-weight string comparison.
	got := Values(data.Number(12), data.String("12"), nil)
	if got != 0.5 {
		t.Errorf("cross-kind exact render = %f, want 0.5", got)
	}
}

func testRecords() (*data.Record, *data.Record) {
	a := data.NewRecord("a", "s1").
		Set("title", data.String("Canon EOS 5D Mark III")).
		Set("price", data.Number(2999)).
		Set("brand", data.String("Canon"))
	b := data.NewRecord("b", "s2").
		Set("title", data.String("canon eos 5d mk iii")).
		Set("price", data.Number(2950)).
		Set("brand", data.String("Canon"))
	return a, b
}

func TestRecordComparator(t *testing.T) {
	a, b := testRecords()
	rc := NewRecordComparator(
		FieldWeight{Attr: "title", Weight: 2, Metric: Jaccard},
		FieldWeight{Attr: "price", Weight: 1},
		FieldWeight{Attr: "brand", Weight: 1},
	)
	s := rc.Compare(a, b)
	if s <= 0.5 || s > 1 {
		t.Errorf("near-duplicate records score = %f, want in (0.5,1]", s)
	}
	c := data.NewRecord("c", "s3").
		Set("title", data.String("LG 55 inch OLED TV")).
		Set("price", data.Number(1200))
	if rc.Compare(a, c) >= s {
		t.Error("unrelated record must score below near-duplicate")
	}
}

func TestRecordComparatorSkipsDoubleMissing(t *testing.T) {
	rc := UniformComparator(nil, "x", "y")
	a := data.NewRecord("a", "s").Set("x", data.String("foo"))
	b := data.NewRecord("b", "s").Set("x", data.String("foo"))
	// y missing from both: only x counts, so score is 1.
	if got := rc.Compare(a, b); got != 1 {
		t.Errorf("score = %f, want 1", got)
	}
}

func TestRecordComparatorNoComparableFields(t *testing.T) {
	rc := UniformComparator(nil, "z")
	a := data.NewRecord("a", "s")
	b := data.NewRecord("b", "s")
	if got := rc.Compare(a, b); got != 0 {
		t.Errorf("no fields score = %f, want 0", got)
	}
}

func TestFieldScores(t *testing.T) {
	a, b := testRecords()
	rc := UniformComparator(nil, "brand", "missing", "title")
	scores := make([]float64, len(rc.Fields()))
	rc.FieldScoresInto(scores, a, b)
	if len(scores) != 3 {
		t.Fatalf("want 3 scores, got %d", len(scores))
	}
	// Fields are sorted: brand, missing, title.
	if scores[0] < 0.999 {
		t.Errorf("brand score = %f, want 1", scores[0])
	}
	if scores[1] != -1 {
		t.Errorf("missing-from-both marker = %f, want -1", scores[1])
	}
	if scores[2] <= 0 {
		t.Errorf("title score = %f, want > 0", scores[2])
	}
}

func TestNewRecordComparatorDropsNonPositiveWeights(t *testing.T) {
	rc := NewRecordComparator(
		FieldWeight{Attr: "a", Weight: 0},
		FieldWeight{Attr: "b", Weight: -1},
		FieldWeight{Attr: "c", Weight: 1},
	)
	if n := len(rc.Fields()); n != 1 {
		t.Errorf("kept %d fields, want 1", n)
	}
}
