package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/data"
)

// SourceConfig controls the population of sources laid over a World.
type SourceConfig struct {
	Seed       int64
	NumSources int

	// HeadFraction of sources are "head" sources with large coverage;
	// the rest are tail sources covering few entities. Default 0.2.
	HeadFraction float64
	// HeadCoverage / TailCoverage are the expected fractions of the
	// entity universe a head/tail source publishes. Defaults 0.6 / 0.05.
	HeadCoverage float64
	TailCoverage float64

	// MinAccuracy..MaxAccuracy bounds the per-source probability of
	// publishing the true value for an attribute. Defaults 0.55..0.95.
	MinAccuracy float64
	MaxAccuracy float64

	// Heterogeneity in [0,1]: how aggressively sources rename attributes
	// and change units. Default 0.5.
	Heterogeneity float64

	// Dirt level 0..3 for record noise. See DirtLevel.
	DirtLevel int

	// IdentifierRate is the probability a source publishes the
	// manufacturer identifier field ("pid"). Default 0.8.
	IdentifierRate float64

	// CopierFraction of sources copy from a randomly chosen independent
	// source instead of observing the world, with CopyRate probability
	// per record. Defaults 0 / 0.9.
	CopierFraction float64
	CopyRate       float64

	// MissingAttrRate is the probability a source simply does not carry
	// an attribute at all (tail attributes live in few sources).
	MissingAttrRate float64
}

func (c *SourceConfig) defaults() {
	if c.NumSources <= 0 {
		c.NumSources = 20
	}
	if c.HeadFraction <= 0 {
		c.HeadFraction = 0.2
	}
	if c.HeadCoverage <= 0 {
		c.HeadCoverage = 0.6
	}
	if c.TailCoverage <= 0 {
		c.TailCoverage = 0.05
	}
	if c.MinAccuracy <= 0 {
		c.MinAccuracy = 0.55
	}
	if c.MaxAccuracy <= 0 {
		c.MaxAccuracy = 0.95
	}
	if c.Heterogeneity < 0 {
		c.Heterogeneity = 0
	} else if c.Heterogeneity == 0 {
		c.Heterogeneity = 0.5
	}
	if c.IdentifierRate == 0 {
		c.IdentifierRate = 0.8
	}
	if c.CopyRate == 0 {
		c.CopyRate = 0.9
	}
	if c.MissingAttrRate < 0 {
		c.MissingAttrRate = 0
	}
}

// GenSource is a generated source profile (generator-internal view; the
// pipeline only sees the resulting data.Source and records).
type GenSource struct {
	ID         string
	Head       bool
	Accuracy   float64
	Coverage   float64
	Dialect    SchemaDialect
	CopiesFrom string // copier target source ID, "" if independent
	PublishID  bool   // whether the source publishes the "pid" field
}

// Web is a generated world + sources + emitted dataset.
type Web struct {
	World   *World
	Sources []*GenSource
	Dataset *data.Dataset
}

// worldAttrs returns every canonical attribute across categories, sorted.
func worldAttrs(w *World) []string {
	var all []string
	for _, cat := range w.Categories {
		all = append(all, w.Attrs[cat]...)
	}
	sort.Strings(all)
	return all
}

// BuildWeb lays a source population over the world and emits the full
// dataset: every source publishes one record per covered entity,
// filtered through its accuracy, schema dialect and dirt.
func BuildWeb(w *World, cfg SourceConfig) *Web {
	cfg.defaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	web := &Web{World: w, Dataset: data.NewDataset()}

	allAttrs := worldAttrs(w)
	// Per-attribute value domains for realistic wrong values.
	domains := map[string][]data.Value{}
	for _, e := range w.Entities {
		for a, v := range e.Values {
			domains[a] = append(domains[a], v)
		}
	}

	numHead := int(math.Round(cfg.HeadFraction * float64(cfg.NumSources)))
	for i := 0; i < cfg.NumSources; i++ {
		gs := &GenSource{
			ID:        fmt.Sprintf("src-%03d", i),
			Head:      i < numHead,
			Accuracy:  cfg.MinAccuracy + r.Float64()*(cfg.MaxAccuracy-cfg.MinAccuracy),
			Dialect:   NewSchemaDialect(r, allAttrs, cfg.Heterogeneity),
			PublishID: r.Float64() < cfg.IdentifierRate,
		}
		if gs.Head {
			gs.Coverage = cfg.HeadCoverage * (0.75 + r.Float64()*0.5)
		} else {
			gs.Coverage = cfg.TailCoverage * (0.5 + r.Float64())
		}
		if gs.Coverage > 1 {
			gs.Coverage = 1
		}
		web.Sources = append(web.Sources, gs)
	}
	// Copiers copy from earlier (independent) sources only, keeping the
	// copy graph acyclic.
	numCopiers := int(math.Round(cfg.CopierFraction * float64(cfg.NumSources)))
	for i := 0; i < numCopiers && cfg.NumSources > 1; i++ {
		idx := cfg.NumSources - 1 - i // tail sources become copiers
		if idx <= 0 {
			break
		}
		target := r.Intn(idx)
		web.Sources[idx].CopiesFrom = web.Sources[target].ID
	}

	// Register sources.
	for _, gs := range web.Sources {
		src := &data.Source{ID: gs.ID, Name: gs.ID, TrueAccuracy: gs.Accuracy}
		if gs.CopiesFrom != "" {
			src.CopiesFrom = []string{gs.CopiesFrom}
		}
		if err := web.Dataset.AddSource(src); err != nil {
			panic(err) // generated IDs are unique by construction
		}
	}

	dirt := DirtLevel(cfg.DirtLevel)
	// Per-source attribute carriage: which canonical attributes the
	// source publishes at all.
	carried := map[string]map[string]bool{}
	for _, gs := range web.Sources {
		m := map[string]bool{}
		for _, a := range allAttrs {
			m[a] = r.Float64() >= cfg.MissingAttrRate
		}
		carried[gs.ID] = m
	}

	// Emission: independent sources observe the world; copiers copy
	// their target's published record when they have one, else observe.
	// We therefore emit in source order (copiers come after targets).
	published := map[string]map[string]*data.Record{} // srcID → entID → record
	recSeq := 0
	for _, gs := range web.Sources {
		published[gs.ID] = map[string]*data.Record{}
		for _, e := range w.Entities {
			// Popular entities are more likely to be covered by any
			// source: scale coverage by (popularity rank factor).
			p := gs.Coverage * (0.5 + e.Popularity)
			if p > 1 {
				p = 1
			}
			if r.Float64() >= p {
				continue
			}
			recID := fmt.Sprintf("r-%05d", recSeq)
			recSeq++
			var rec *data.Record
			if gs.CopiesFrom != "" {
				if orig, ok := published[gs.CopiesFrom][e.ID]; ok && r.Float64() < cfg.CopyRate {
					rec = copyRecord(r, recID, gs, orig, dirt)
				}
			}
			if rec == nil {
				rec = observeRecord(r, recID, gs, e, domains, carried[gs.ID], dirt)
			}
			published[gs.ID][e.ID] = rec
			if err := web.Dataset.AddRecord(rec); err != nil {
				panic(err)
			}
		}
	}
	return web
}

// observeRecord emits a source's independent observation of an entity.
func observeRecord(r *rand.Rand, recID string, gs *GenSource, e *Entity,
	domains map[string][]data.Value, carried map[string]bool, dirt Dirt) *data.Record {
	rec := data.NewRecord(recID, gs.ID)
	rec.EntityID = e.ID
	rec.Set("title", data.String(dirt.PerturbString(r, e.Name)))
	if gs.PublishID {
		rec.Set("pid", data.String(e.Identifier))
	}
	attrs := make([]string, 0, len(e.Values))
	for a := range e.Values {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		truth := e.Values[a]
		if !carried[a] {
			continue
		}
		if r.Float64() < dirt.MissingRate {
			continue
		}
		v := truth
		if r.Float64() >= gs.Accuracy {
			v = wrongValueFor(r, truth, domains[a])
		}
		name, dialectVal := gs.Dialect.Apply(a, v)
		rec.Set(name, dirt.PerturbValue(r, dialectVal))
	}
	return rec
}

// copyRecord emits a copier's version of an already-published record:
// same values (including the target's mistakes), re-expressed in the
// copier's dialect is skipped — copiers republish nearly verbatim with only
// light formatting noise, which is what makes copying detectable.
func copyRecord(r *rand.Rand, recID string, gs *GenSource, orig *data.Record, dirt Dirt) *data.Record {
	rec := data.NewRecord(recID, gs.ID)
	rec.EntityID = orig.EntityID
	rec.Grow(len(orig.Fields()))
	for _, f := range orig.Fields() {
		if f.Attr == "title" && f.Value.Kind == data.KindString {
			rec.Set(f.Attr, data.String(dirt.PerturbString(r, f.Value.Str)))
			continue
		}
		rec.Set(f.Attr, f.Value)
	}
	if !gs.PublishID {
		rec.Set("pid", data.Null())
	}
	return rec
}
