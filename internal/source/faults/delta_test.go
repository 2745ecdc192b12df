package faults

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/source"
)

func deltaWeb(seed int64) *data.Dataset {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: seed, NumEntities: 30})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: seed + 1, NumSources: 4, DirtLevel: 1,
		IdentifierRate: 0.9, Heterogeneity: 0.3,
	})
	return web.Dataset
}

func mangleFingerprint(log []source.Delta) string {
	s := ""
	for _, d := range log {
		s += d.Op.String() + ":" + d.ID + ";"
	}
	return s
}

// replay folds a delta log into its final live set.
func replay(log []source.Delta) map[string]*data.Record {
	live := map[string]*data.Record{}
	for _, d := range log {
		switch d.Op {
		case source.OpUpsert:
			live[d.ID] = d.Record
		case source.OpDelete:
			delete(live, d.ID)
		}
	}
	return live
}

func TestMangleLogDeterministicAndSemanticsPreserving(t *testing.T) {
	d := deltaWeb(20)
	srcs := d.Sources()
	clean, _ := source.Churn(d.SourceRecords(srcs[0].ID),
		source.ChurnConfig{Seed: 5, UpdateRate: 0.3, DeleteRate: 0.2})
	cfg := DeltaConfig{Seed: 77, DupDeleteRate: 0.5, EarlyDeleteRate: 0.3, UpdateStormRate: 0.3}

	a := MangleLog(srcs[0].ID, clean, cfg)
	b := MangleLog(srcs[0].ID, clean, cfg)
	if mangleFingerprint(a) != mangleFingerprint(b) {
		t.Fatal("mangle not deterministic")
	}
	if len(a) <= len(clean) {
		t.Fatalf("mangle injected nothing: %d ≤ %d", len(a), len(clean))
	}

	// The mangles are adversarial noise, not data changes: replaying
	// the mangled log must end at exactly the clean log's live set.
	want, got := replay(clean), replay(a)
	if len(want) != len(got) {
		t.Fatalf("live sets differ: %d vs %d", len(want), len(got))
	}
	for id, r := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("record %s lost by mangling", id)
		}
		if g.Get("title").Str != r.Get("title").Str {
			t.Fatalf("record %s ends at wrong version", id)
		}
	}
}

// TestMangleLogPrefixProperty pins the guarantee refetch-until-covered
// depends on: mangling a truncated inner log yields an exact prefix of
// the full mangled log, so a short payload can never deliver content
// that diverges from the canonical sequence.
func TestMangleLogPrefixProperty(t *testing.T) {
	d := deltaWeb(21)
	srcs := d.Sources()
	clean, _ := source.Churn(d.SourceRecords(srcs[0].ID),
		source.ChurnConfig{Seed: 6, UpdateRate: 0.4, DeleteRate: 0.3})
	reg := obs.NewRegistry()
	cfg := DeltaConfig{Seed: 99, DupDeleteRate: 0.4, EarlyDeleteRate: 0.4, UpdateStormRate: 0.4, Obs: reg}

	full := MangleLog(srcs[0].ID, clean, cfg)
	// Every update storm delivers 3 copies: 2 beyond the original.
	storms := reg.Counter("faults.delta_update_storms").Value()
	injected := reg.Counter("faults.delta_dup_deletes").Value() +
		reg.Counter("faults.delta_early_deletes").Value() + 2*storms
	if storms == 0 || int64(len(full)) != int64(len(clean))+injected {
		t.Fatalf("mangled %d deltas into %d with %d storms; want storms of 3 copies", len(clean), len(full), storms)
	}
	for k := 0; k <= len(clean); k++ {
		part := MangleLog(srcs[0].ID, clean[:k], cfg)
		if len(part) > len(full) {
			t.Fatalf("prefix %d mangles longer than full log", k)
		}
		if mangleFingerprint(part) != mangleFingerprint(full[:len(part)]) {
			t.Fatalf("mangle of prefix %d is not a prefix of the full mangled log", k)
		}
	}
}

// TestWrappedDeltaFleetStreamsDeterministically drives a mangled,
// record-fault-wrapped fleet through DeltaStreamer twice and demands
// identical epochs — the end-to-end determinism contract.
func TestWrappedDeltaFleetStreamsDeterministically(t *testing.T) {
	d := deltaWeb(22)
	cleanFleet, _, _ := source.ChurnSources(d, source.ChurnConfig{Seed: 8, UpdateRate: 0.2, DeleteRate: 0.15})
	cfg := DeltaConfig{Seed: 123, DupDeleteRate: 0.3, EarlyDeleteRate: 0.2, UpdateStormRate: 0.2}

	totals := map[string]int{}
	for _, s := range cleanFleet {
		st := s.(*source.DeltaStatic)
		totals[st.Src.ID] = MangledTotal(st.Src.ID, st.Log, cfg)
	}

	drain := func() []source.DeltaEpoch {
		str, err := source.NewDeltaStreamer(context.Background(),
			WrapDeltasAll(cleanFleet, cfg),
			source.StreamConfig{EpochSize: 7, Totals: totals})
		if err != nil {
			t.Fatal(err)
		}
		defer str.Close()
		var eps []source.DeltaEpoch
		for ep := range str.C {
			eps = append(eps, ep)
		}
		if err := str.Err(); err != nil {
			t.Fatal(err)
		}
		return eps
	}
	a, b := drain(), drain()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("epoch counts %d vs %d", len(a), len(b))
	}
	injected := 0
	for i := range a {
		if mangleFingerprint(a[i].Deltas) != mangleFingerprint(b[i].Deltas) {
			t.Fatalf("epoch %d differs across runs", i)
		}
		injected += len(a[i].Deltas)
	}
	cleanLen := 0
	for _, s := range cleanFleet {
		cleanLen += len(s.(*source.DeltaStatic).Log)
	}
	if injected <= cleanLen {
		t.Fatalf("streamed %d deltas, want > clean %d (mangles must appear)", injected, cleanLen)
	}
}
