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
# then a kill around the save of an epoch that applied deletes at
# workers {1,2,8} (TestStreamKillMidCompactionChaos, named for the
# compaction it once guarded), backup-file recovery, the committed v2
# state file loading without its tombstones and draining to the
# uninterrupted run's output, the codec corruption sweep, the linker's
# op-sequence corpus against its tombstoning reference and its own
# rebuilt posting lists with the retraction cost curve and posting
# bound, the same corpus through a linker that keeps a
# feature index current against one that tokenizes every comparison
# (down to deleting every record), the stream's op-sequence corpus against the
# from-scratch publish with the publish cost curve and readers racing
# later publishes, the stream's token IDs staying stable with readers
# racing a fold of the word dictionary's top and a renumbering of
# both dictionaries once every record is deleted, the stream's one
# dictionary growth bound renumbering its word dictionary and the
# feature index twice under title churn with readers racing the
# renumbering and every publish equal to the from-scratch one, concurrent queries on two
# snapshots sharing no pooled scratch, the online kernel against its
# dense reference, every fuser's output bits on three claim-set shapes,
# record fleets keeping
# their stream and state bits as upsert logs, a panicking source
# failing the stream with an error (and, panicking once, draining to
# the clean output), batch ingest folding the same dataset a stream
# holds (churned fleets, clean and mangled), the HTTP edge:
# the handler fuzz corpus and Close racing Publish and reads, bdiserve's
# stream stop waiting out an in-flight save, and spill hygiene: a
# cancelled spill, Indexed.Pairs on a budgeted engine, and budgeted
# pipeline runs on every candidate path leave no spill directory behind,
# truncated spill runs fail matching instead of matching a prefix, and
# a position bucket holding a position twice, one outside its range or
# one entry too few fails the replay.
chaos:
	$(GO) run -race ./cmd/bdibench -exp E23
	$(GO) test -race -run 'TestStreamKillMidCompactionChaos|TestStreamStateBackupRecovery|TestV2CommittedFixtureLoadsCompacted|TestStreamStateDecodeRobust|FuzzStreamStateDecode|FuzzIncrementalOps|TestIncrementalIndexMatchesStrings|TestDeleteCostIndependentOfCorpus|FuzzHandlers|TestShutdownDuringPublish|FuzzStreamOps|TestPublishCostFollowsDirtySet|TestSnapshotsShareNoMutableState|TestStreamTokenIDsStable|TestStreamDictionaryBound|TestQueryScratchIsolated|TestOnlineKernelMatchesReference|TestFusersKeepParentBits|TestRecordFleetsKeepParentBits|TestStreamSurvivesPanickingSource|TestStreamPanicOnceDrainsClean|TestIngestMatchesStream|TestStreamStopWaitsForSave|TestSpillCancellation|TestIndexedPairsLeaveNoSpill|TestPipelineShardedSpilledIdentical|TestMatchFailsOnTruncatedSpill|TestRunReaderBlocks|TestSpillReplayRejectsCorruptBuckets' ./internal/core/... ./internal/source/... ./internal/linkage/... ./internal/serve/... ./internal/fusion/... ./internal/blocking/... ./cmd/bdiserve/...
