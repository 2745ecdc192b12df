// Package data defines the shared data model for the big-data-integration
// pipeline: typed values, records, sources, datasets, claims, match pairs
// and clusterings. Every other package in the module builds on these types.
//
// The model follows the ICDE 2013 "Big Data Integration" tutorial framing:
// a dataset is a collection of sources, each source contributes records,
// each record describes one real-world entity through attribute/value
// fields, and fusion reasons over claims — (data item, source, value)
// triples where a data item is a particular attribute of a particular
// entity.
package data

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ValueKind enumerates the dynamic type of a Value.
type ValueKind int

// The supported value kinds.
const (
	KindNull ValueKind = iota
	KindString
	KindNumber
	KindBool
	KindTime
)

// String returns the lower-case kind name ("null", "string", ...).
func (k ValueKind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindNumber:
		return "number"
	case KindBool:
		return "bool"
	case KindTime:
		return "time"
	default:
		return fmt.Sprintf("ValueKind(%d)", int(k))
	}
}

// Value is a dynamically typed attribute value. The zero Value is null.
// Values are small and intended to be passed by value.
type Value struct {
	Kind ValueKind
	Str  string
	Num  float64
	Bool bool
	Time time.Time
}

// Null returns the null value.
func Null() Value { return Value{} }

// String wraps a string. Empty strings are normalised to null so that
// "missing" has a single representation throughout the pipeline.
func String(s string) Value {
	if s == "" {
		return Null()
	}
	return Value{Kind: KindString, Str: s}
}

// Number wraps a float64. NaN is normalised to null.
func Number(f float64) Value {
	if math.IsNaN(f) {
		return Null()
	}
	return Value{Kind: KindNumber, Num: f}
}

// Bool wraps a bool.
func Bool(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// Time wraps a time.Time. The zero time is normalised to null.
func Time(t time.Time) Value {
	if t.IsZero() {
		return Null()
	}
	return Value{Kind: KindTime, Time: t}
}

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Equal reports whether two values have the same kind and payload.
// Numbers compare exactly; use similarity metrics for fuzzy comparison.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindString:
		return v.Str == w.Str
	case KindNumber:
		return v.Num == w.Num
	case KindBool:
		return v.Bool == w.Bool
	case KindTime:
		return v.Time.Equal(w.Time)
	}
	return false
}

// String renders the value as a human-readable string. Null renders as "".
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return ""
	case KindString:
		return v.Str
	case KindNumber:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.Bool)
	case KindTime:
		return v.Time.Format(time.RFC3339)
	}
	return ""
}

// Key renders the value as a canonical, kind-prefixed string usable as a
// map key. Distinct values of different kinds never collide.
func (v Value) Key() string {
	if v.Kind == KindString {
		return "s:" + v.Str
	}
	var buf [48]byte
	return string(v.AppendKey(buf[:0]))
}

// SameKey reports whether v and w have the same Key, without a string:
// numbers are compared as numbers with their sign, for a Key tells -0
// from 0 and renders every other float64 apart.
func (v Value) SameKey(w Value) bool {
	if v.Kind == KindNumber && w.Kind == KindNumber {
		return v.Num == w.Num && math.Signbit(v.Num) == math.Signbit(w.Num) || v.Num != v.Num && w.Num != w.Num
	}
	return compareKeys(v, w) == 0
}

// compareKeys orders two values as their Keys order, rendering the keys
// into stack buffers; two strings compare in place.
func compareKeys(v, w Value) int {
	if v.Kind == KindString && w.Kind == KindString {
		return strings.Compare(v.Str, w.Str)
	}
	var a, b [48]byte
	return bytes.Compare(v.AppendKey(a[:0]), w.AppendKey(b[:0]))
}

// AppendKey appends the bytes of Key to dst.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, "∅"...)
	case KindString:
		return append(append(dst, "s:"...), v.Str...)
	case KindNumber:
		return strconv.AppendFloat(append(dst, "n:"...), v.Num, 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(append(dst, "b:"...), v.Bool)
	case KindTime:
		return v.Time.UTC().AppendFormat(append(dst, "t:"...), time.RFC3339Nano)
	}
	return append(dst, '?')
}

// Parse converts a raw string to the most specific Value it can:
// number, bool, RFC3339 time, else string. Empty input parses to null.
func Parse(raw string) Value {
	s := strings.TrimSpace(raw)
	if s == "" {
		return Null()
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) {
		return Number(f)
	}
	switch strings.ToLower(s) {
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return Time(t)
	}
	return String(s)
}

// Compare orders values: nulls first, then by kind, then by payload.
// It returns -1, 0 or +1 and induces a total order usable for sorting.
func Compare(a, b Value) int {
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case KindNull:
		return 0
	case KindString:
		return strings.Compare(a.Str, b.Str)
	case KindNumber:
		switch {
		case a.Num < b.Num:
			return -1
		case a.Num > b.Num:
			return 1
		}
		return 0
	case KindBool:
		switch {
		case !a.Bool && b.Bool:
			return -1
		case a.Bool && !b.Bool:
			return 1
		}
		return 0
	case KindTime:
		switch {
		case a.Time.Before(b.Time):
			return -1
		case a.Time.After(b.Time):
			return 1
		}
		return 0
	}
	return 0
}
