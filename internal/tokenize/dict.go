package tokenize

import "maps"

// Dict maps strings to dense uint32 IDs so word sets can be held and
// compared as sorted integer slices. IDs are handed out in first-Intern
// order and never reused; Renumber moves the IDs still in use into a
// fresh Dict.
//
// One goroutine writes a Dict. ID and Token read it, so any number of
// goroutines may call them at once while no write is in flight (a
// parallel pass that looks words up and leaves the misses to one
// interning goroutine). Freeze hands readers a copy they keep reading
// while the writer goes on: base is never written once
// made, top is copied before the first write after a Freeze, and Freeze
// folds top into a new base once it passes an eighth of base. The token
// list only grows, so a frozen copy never sees a write either.
type Dict struct {
	base, top map[string]uint32
	toks      []string // toks[id] is the string of ID id
	shared    bool     // a frozen copy holds top
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{base: map[string]uint32{}, top: map[string]uint32{}} }

// ID returns the ID of s and whether s has one.
func (d *Dict) ID(s string) (uint32, bool) {
	id, ok := d.base[s]
	if !ok {
		id, ok = d.top[s]
	}
	return id, ok
}

// Intern returns the ID of s, handing out the next free ID on first
// sight.
func (d *Dict) Intern(s string) uint32 {
	id, ok := d.ID(s)
	if !ok {
		if d.shared {
			d.top, d.shared = maps.Clone(d.top), false
		}
		id = uint32(len(d.toks))
		d.top[s] = id
		d.toks = append(d.toks, s)
	}
	return id
}

// InternAll interns toks in order and returns their IDs, in order.
func (d *Dict) InternAll(toks []string) []uint32 {
	ids := make([]uint32, len(toks))
	for i, t := range toks {
		ids[i] = d.Intern(t)
	}
	return ids
}

// Token returns the string of ID id.
func (d *Dict) Token(id uint32) string { return d.toks[id] }

// Len returns the number of IDs handed out.
func (d *Dict) Len() int { return len(d.toks) }

// Freeze returns the dictionary as a reader holds it: later writes to d
// do not reach the copy.
func (d *Dict) Freeze() Dict {
	if len(d.top) > len(d.base)/8 {
		base := maps.Clone(d.base)
		maps.Copy(base, d.top)
		d.base, d.top = base, map[string]uint32{}
	}
	d.shared = true
	return *d
}

// Renumber returns a fresh dictionary of the IDs held marks, interned in
// ascending order of their IDs in d, and the map from old IDs to new
// ones. The order is monotone, so a sorted set of held IDs stays sorted
// when mapped. d itself is left as it is.
func (d *Dict) Renumber(held []bool) (*Dict, []uint32) {
	fresh, renum := NewDict(), make([]uint32, len(d.toks))
	for id, ok := range held {
		if ok {
			renum[id] = fresh.Intern(d.toks[id])
		}
	}
	return fresh, renum
}
