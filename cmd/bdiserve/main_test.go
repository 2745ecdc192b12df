package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

func TestHTTPServerSetsEveryTimeout(t *testing.T) {
	s := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.ReadTimeout <= 0 || s.WriteTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Fatalf("unbounded connection phase: header %v, read %v, write %v, idle %v",
			s.ReadHeaderTimeout, s.ReadTimeout, s.WriteTimeout, s.IdleTimeout)
	}
}

// TestStreamStopWaitsForSave stops a persisting stream mid-drain: stop
// must return only once the stream goroutine has exited, so no
// half-written state temp file is left behind, the state on disk loads,
// and the requested cancellation reads as a clean stop.
func TestStreamStopWaitsForSave(t *testing.T) {
	world := datagen.NewWorld(datagen.WorldConfig{Seed: 5, NumEntities: 60})
	d := datagen.BuildWeb(world, datagen.SourceConfig{Seed: 6, NumSources: 6, DirtLevel: 1, IdentifierRate: 0.8}).Dataset
	dir := t.TempDir()
	cfg := core.StreamConfig{EpochSize: 2, PublishEvery: 1, StatePath: filepath.Join(dir, "stream.state")}

	// The first publish holds the stream until stop has cancelled it, so
	// the stop lands mid-drain with the epoch's save still to run.
	runners := make(chan *streamRunner, 1)
	published := make(chan struct{})
	first := true
	st, err := core.NewStream(cfg, func(*core.Snapshot) {
		if first {
			first = false
			r := <-runners
			close(published)
			<-r.ctx.Done()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r := startStream(st, d)
	runners <- r
	<-published
	if err := r.stop(); err != nil {
		t.Fatalf("stop after a requested cancel = %v, want a clean stop", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".bdistate-") {
			t.Errorf("stop left the temp file %s behind", e.Name())
		}
	}
	loaded, err := core.LoadStream(cfg.StatePath, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch() == 0 || loaded.Ingested() >= int64(d.NumRecords()) {
		t.Errorf("saved state at epoch %d with %d of %d records: the stop did not land mid-drain",
			loaded.Epoch(), loaded.Ingested(), d.NumRecords())
	}
}
