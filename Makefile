GO ?= go

.PHONY: check build vet test race bench chaos

# Everything the CI gate runs: build + vet + the full suite under the
# race detector (every per-layer race and shape test is part of it).
check: build vet race

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repo benchmark (benchmark/README.md): three sets of the four
# workloads, judged metric by metric against the committed baseline;
# exits 1 on any "worse".
bench:
	mkdir -p .bench_build
	$(GO) run ./benchmark -seed 42 -runs 3 -out .bench_build/new.json
	$(GO) run ./benchmark -compare benchmark/baseline.json .bench_build/new.json

# Chaos gate under the race detector: the fault-injection sweep (E23),
# then kill-mid-compaction at workers {1,2,8} with byte-identity of the
# restored state, backup-file recovery, the codec corruption sweep, the
# linker's op-sequence corpus against its full-rebuild oracle with the
# retraction cost curve, the stream's op-sequence corpus against the
# from-scratch publish with the publish cost curve and readers racing
# later publishes, concurrent queries on two snapshots sharing no pooled
# scratch, the online kernel against its dense reference, every
# fuser's output bits on three claim-set shapes, record fleets keeping
# their stream and state bits as upsert logs, a panicking source
# failing the stream with an error (and, panicking once, draining to
# the clean output), batch ingest folding the same dataset a stream
# holds (churned fleets, clean and mangled), the HTTP edge:
# the handler fuzz corpus and Close racing Publish and reads, bdiserve's
# stream stop waiting out an in-flight save, and spill hygiene: a
# cancelled spill, Indexed.Pairs on a budgeted engine, and budgeted
# pipeline runs on every candidate path leave no spill directory behind.
chaos:
	$(GO) run -race ./cmd/bdibench -exp E23
	$(GO) test -race -run 'TestStreamKillMidCompactionChaos|TestStreamStateBackupRecovery|TestStreamStateDecodeRobust|FuzzStreamStateDecode|FuzzIncrementalOps|TestDeleteCostIndependentOfCorpus|FuzzHandlers|TestShutdownDuringPublish|FuzzStreamOps|TestPublishCostFollowsDirtySet|TestSnapshotsShareNoMutableState|TestQueryScratchIsolated|TestOnlineKernelMatchesReference|TestFusersKeepParentBits|TestRecordFleetsKeepParentBits|TestStreamSurvivesPanickingSource|TestStreamPanicOnceDrainsClean|TestIngestMatchesStream|TestStreamStopWaitsForSave|TestSpillCancellation|TestIndexedPairsLeaveNoSpill|TestPipelineShardedSpilledIdentical' ./internal/core/... ./internal/source/... ./internal/linkage/... ./internal/serve/... ./internal/fusion/... ./internal/blocking/... ./cmd/bdiserve/...
