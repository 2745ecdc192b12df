// Package bdi is the public facade of a from-scratch Go implementation
// of the big-data-integration pipeline described in Dong & Srivastava's
// ICDE 2013 tutorial "Big Data Integration": record linkage at scale
// (blocking, meta-blocking, probabilistic matching, clustering,
// incremental linkage), schema alignment (probabilistic mediated
// schema, linkage-aware attribute matching, unit-transform discovery)
// and data fusion (voting, TruthFinder, ACCU/POPACCU, copy detection,
// ACCUCOPY), plus the synthetic web-of-sources generator used to
// evaluate them.
//
// The quickest way in is the end-to-end pipeline:
//
//	world := bdi.NewWorld(bdi.WorldConfig{Seed: 1, NumEntities: 100})
//	web := bdi.BuildWeb(world, bdi.SourceConfig{Seed: 2, NumSources: 20})
//	report, err := bdi.NewPipeline(bdi.PipelineConfig{}).Run(web.Dataset)
//
// RunCtx is the context-aware variant: cancellation and deadlines stop
// every stage at its next chunk boundary. Datasets can also be ingested resiliently from a
// fleet of sources — with retries, circuit breaking and optional
// deterministic fault injection — via NewIngestor and WrapAllFaults.
//
// Individual stages are available through the re-exported constructors
// below; the full machinery lives in the internal packages and is
// exercised by the examples under examples/ and the experiment harness
// in cmd/bdibench.
package bdi

import (
	"context"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/fusion"
	"repro/internal/linkage"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/source"
	"repro/internal/source/faults"
)

// Data model re-exports.
type (
	// Dataset is a collection of sources and their records.
	Dataset = data.Dataset
	// Record is one source's description of one entity. Its fields are
	// read through Fields, Get, Has and Attrs and written through Set.
	Record = data.Record
	// Field is one attribute → value cell of a Record.
	Field = data.Field
	// Source describes one data source.
	Source = data.Source
	// Value is a dynamically typed attribute value.
	Value = data.Value
	// Item identifies one attribute of one entity (a fusion data item).
	Item = data.Item
	// Claim is one (item, source, value) observation.
	Claim = data.Claim
	// ClaimSet is an indexed collection of claims.
	ClaimSet = data.ClaimSet
	// Pair is an unordered pair of record IDs.
	Pair = data.Pair
	// ScoredPair attaches a match score to a pair.
	ScoredPair = data.ScoredPair
	// Cluster is a set of record IDs believed to be one entity.
	Cluster = data.Cluster
	// Clustering is a partition of records into entities.
	Clustering = data.Clustering
)

// Constructors and value helpers.
var (
	// NewDataset returns an empty dataset.
	NewDataset = data.NewDataset
	// NewRecord allocates a record with no fields; Set adds them.
	NewRecord = data.NewRecord
	// NewClaimSet returns an empty claim set.
	NewClaimSet = data.NewClaimSet
	// NewPair canonicalises an unordered record-ID pair.
	NewPair = data.NewPair
	// StringValue wraps a string attribute value.
	StringValue = data.String
	// NumberValue wraps a numeric attribute value.
	NumberValue = data.Number
	// BoolValue wraps a boolean attribute value.
	BoolValue = data.Bool
	// TimeValue wraps a timestamp attribute value.
	TimeValue = data.Time
	// ParseValue converts a raw string to the most specific Value.
	ParseValue = data.Parse
	// ReadJSON parses a dataset from its JSON form.
	ReadJSON = data.ReadJSON
	// ReadCSV parses a dataset from its CSV form.
	ReadCSV = data.ReadCSV
)

// Pipeline re-exports.
type (
	// PipelineConfig controls an end-to-end pipeline run.
	PipelineConfig = core.Config
	// Pipeline is the end-to-end integration flow.
	Pipeline = core.Pipeline
	// Report is the full output of a pipeline run.
	Report = core.Report
	// Order selects linkage-first or schema-first stage ordering.
	Order = core.Order
	// Metrics is the observability registry: attach one via
	// PipelineConfig.Obs (or obs.SetDefault) to collect per-stage
	// counters, timers and the stage span tree; export with
	// Snapshot().Stable().Text() / .JSON().
	Metrics = obs.Registry
)

// Pipeline orderings.
const (
	// LinkageFirst links records before aligning schemas (recommended).
	LinkageFirst = core.LinkageFirst
	// SchemaFirst aligns schemas before linking (traditional ordering).
	SchemaFirst = core.SchemaFirst
)

// ZeroThreshold marks a threshold as explicitly zero (the zero value
// of the threshold fields means "use the default").
const ZeroThreshold = core.ZeroThreshold

// Serving re-exports. A pipeline Report materializes one immutable
// Snapshot (entities, inverted token index, feature-index-backed
// comparator) via Report.Snapshot(); ServeServer answers concurrent
// HTTP/JSON queries over it lock-free and swaps rebuilt snapshots in
// atomically behind a bounded reindex queue. cmd/bdiserve is the
// runnable daemon.
type (
	// Snapshot is an immutable, concurrency-safe serving view of an
	// integration run: entity lookup, keyword search, record
	// resolution and similar-entity queries, each index built once.
	Snapshot = core.Snapshot
	// ServeServer is the HTTP integration service over a Snapshot.
	ServeServer = serve.Server
	// ServeConfig tunes the service: reindex queue depth, resolve
	// match threshold, limit caps, metrics registry.
	ServeConfig = serve.Config
	// RebuildFunc produces a fresh Snapshot for the background
	// reindex path.
	RebuildFunc = serve.RebuildFunc
	// LoadConfig drives the in-process load-test driver.
	LoadConfig = serve.LoadConfig
	// LoadResult summarises a load test: errors, p50/p99, QPS.
	LoadResult = serve.LoadResult
)

var (
	// BuildSnapshot materializes a serving snapshot from a report
	// (Report.Snapshot memoizes this per report).
	BuildSnapshot = core.BuildSnapshot
	// NewServer builds the HTTP service around an initial snapshot.
	NewServer = serve.New
	// LoadTest drives concurrent search traffic against a running
	// service and reports latency quantiles.
	LoadTest = serve.LoadTest
)

// DefaultSearchLimit is the hit cap applied when a search limit of 0
// is passed (negative limits are rejected).
const DefaultSearchLimit = core.DefaultSearchLimit

// NewMetrics returns an empty, enabled metrics registry.
var NewMetrics = obs.NewRegistry

// NewPipeline builds a pipeline, resolving config defaults.
func NewPipeline(cfg PipelineConfig) *Pipeline { return core.New(cfg) }

// BuildFuser resolves a fusion method by name — "vote", "truthfinder",
// "accu", "popaccu", "accucopy" or "numeric" — with the default worker
// pool, no metrics and no cancellation.
func BuildFuser(name string) (Fuser, error) {
	return core.BuildFuser(context.Background(), name, 0, nil)
}

// Resilient ingestion re-exports. Every source is a change log
// (DeltaSource; a static source is one upsert per record). Sources flow
// into the pipeline through an Ingestor, which retries transient
// failures with jittered backoff, circuit-breaks persistently failing
// sources, folds each surviving log into the dataset and degrades
// gracefully: the pipeline integrates whatever survived, and the
// IngestReport says exactly what was dropped. The fault injector in
// internal/source/faults wraps any fleet with a deterministic, seeded
// fault schedule for chaos testing.
type (
	// Ingestor fetches a fleet of sources resiliently.
	Ingestor = source.Ingestor
	// IngestConfig tunes retries, backoff, circuit breaking and the
	// minimum surviving-source count.
	IngestConfig = source.IngestConfig
	// IngestReport summarises an ingestion run: per-source outcomes,
	// dropped and degraded source IDs, attempt counts.
	IngestReport = source.Report
	// IngestOutcome is one source's final state after ingestion.
	IngestOutcome = source.Outcome
	// FaultConfig tunes the deterministic fault injector.
	FaultConfig = faults.Config
)

var (
	// NewIngestor builds an ingestor, resolving config defaults.
	NewIngestor = source.NewIngestor
	// SourcesFromDataset turns a dataset's sources into upsert logs.
	SourcesFromDataset = source.FromDataset
	// SourcesFromWeb turns a generated web into upsert logs.
	SourcesFromWeb = source.FromWeb
	// WrapFaults wraps one source with a seeded fault injector.
	WrapFaults = faults.Wrap
	// WrapAllFaults wraps a whole fleet with seeded fault injectors.
	WrapAllFaults = faults.WrapAll
)

// Streaming re-exports — the Velocity path. A stream reads the same
// change logs the Ingestor folds (SourcesFromDataset for a dataset's
// upsert logs, ChurnSources for updates and deletes): a DeltaStreamer
// batches the fleet into deterministic epochs, and a Stream folds each
// epoch through incremental linkage and online fusion and republishes
// the serving Snapshot within a configurable staleness window
// (ServeServer.Publish is the intended sink). With
// StreamConfig.StatePath set, the stream persists its full state
// (cursors, posting lists, union-find partition, fusion accuracy
// estimates) atomically every epoch, and ResumeStream continues a
// killed stream byte-identically. cmd/bdirun -stream and cmd/bdiserve
// -stream are the runnable forms; E27 in cmd/bdibench measures the cost
// advantage over batch relinking.
type (
	// StreamConfig tunes the streaming integration processor.
	StreamConfig = core.StreamConfig
	// Stream is the long-lived streaming integration processor.
	Stream = core.Stream
	// StreamerConfig tunes epoch batching over a fleet.
	StreamerConfig = source.StreamConfig
)

var (
	// NewStream builds a fresh streaming processor.
	NewStream = core.NewStream
	// LoadStream restores a streaming processor from a state file.
	LoadStream = core.LoadStream
	// ResumeStream restores from StreamConfig.StatePath when the file
	// exists and starts fresh otherwise.
	ResumeStream = core.ResumeStream
	// SourceTotals reads per-source record counts from a dataset — the
	// log lengths a DeltaStreamer needs for a fault-wrapped
	// SourcesFromDataset fleet.
	SourceTotals = source.Totals
)

// Mutable-stream re-exports — updates and deletions. A source's log
// carries typed deltas (upsert/delete); a delete takes the record out
// of the dataset, the partition (deterministic recluster of the
// affected component) and its keys' posting lists at once, so the
// blocking index holds exactly the live records and the next publish
// fuses their claims alone. cmd/bdirun
// -stream-update-rate/-stream-delete-rate are the runnable forms; E28
// in cmd/bdibench is the churn evaluation.
type (
	// Delta is one typed stream mutation: an upsert carrying a record,
	// or a deletion carrying only the record ID.
	Delta = source.Delta
	// DeltaOp discriminates upserts from deletions.
	DeltaOp = source.DeltaOp
	// DeltaSource is a source that exposes its change log as deltas.
	DeltaSource = source.DeltaSource
	// DeltaStatic replays a fixed delta log as a DeltaSource.
	DeltaStatic = source.DeltaStatic
	// DeltaEpoch is one deterministic batch of deltas with resume
	// cursors.
	DeltaEpoch = source.DeltaEpoch
	// DeltaStreamer drains a delta fleet as a channel of epochs.
	DeltaStreamer = source.DeltaStreamer
	// ChurnConfig shapes a synthetic update/delete workload over a
	// dataset (corrupt-then-correct updates, late deletions).
	ChurnConfig = source.ChurnConfig
	// DeltaFaultConfig seeds the delta manglers: duplicate deletes,
	// delete-before-insert, update storms.
	DeltaFaultConfig = faults.DeltaConfig
)

var (
	// UpsertDelta lifts a record into an upsert delta.
	UpsertDelta = source.Upsert
	// DeletionDelta builds a delete delta for a record ID.
	DeletionDelta = source.Deletion
	// Churn turns a dataset into a churned delta log plus the planned
	// delete set.
	Churn = source.Churn
	// ChurnSources splits a churned dataset into a per-source delta
	// fleet with totals.
	ChurnSources = source.ChurnSources
	// NewDeltaStreamer starts epoch batching over a delta fleet.
	NewDeltaStreamer = source.NewDeltaStreamer
	// WrapDeltaFaults wraps a whole delta fleet with seeded manglers.
	WrapDeltaFaults = faults.WrapDeltasAll
)

// Sentinel errors, re-exported so callers can classify failures with
// errors.Is without importing internal packages.
var (
	// ErrUnknownOrder reports an unrecognised PipelineConfig.Order.
	ErrUnknownOrder = core.ErrUnknownOrder
	// ErrUnknownClusterer reports an unrecognised clusterer name.
	ErrUnknownClusterer = core.ErrUnknownClusterer
	// ErrUnknownFuser reports an unrecognised fusion method name.
	ErrUnknownFuser = core.ErrUnknownFuser
	// ErrNoMatcher reports clustering attempted with a nil matcher.
	ErrNoMatcher = linkage.ErrNoMatcher
	// ErrNilKey reports a blocking pass registered with a nil key func.
	ErrNilKey = blocking.ErrNilKey
	// ErrTransient marks a source failure worth retrying.
	ErrTransient = source.ErrTransient
	// ErrPermanent marks a source failure retries cannot fix.
	ErrPermanent = source.ErrPermanent
	// ErrNoSuchEntity reports a snapshot lookup for an unknown entity.
	ErrNoSuchEntity = core.ErrNoSuchEntity
	// ErrBreakerOpen reports a fetch skipped by an open circuit breaker.
	ErrBreakerOpen = source.ErrBreakerOpen
	// ErrTooFewSources reports ingestion ending below
	// IngestConfig.MinSources; the partial dataset and report are
	// still returned alongside it.
	ErrTooFewSources = source.ErrTooFewSources
	// ErrBadState reports a corrupt, truncated or wrong-version stream
	// state file.
	ErrBadState = core.ErrBadState
	// ErrShortSource reports a source that kept returning fewer records
	// than its declared total through the whole refetch budget.
	ErrShortSource = source.ErrShortSource
)

// Fusion re-exports.
type (
	// Fuser decides the true value of every item in a claim set.
	Fuser = fusion.Fuser
	// FusionResult is the outcome of fusing a claim set.
	FusionResult = fusion.Result
)

// Generator re-exports: the synthetic web of sources.
type (
	// WorldConfig controls entity-universe generation.
	WorldConfig = datagen.WorldConfig
	// World is a generated entity universe.
	World = datagen.World
	// SourceConfig controls the source population laid over a world.
	SourceConfig = datagen.SourceConfig
	// Web is a generated world, source population and emitted dataset.
	Web = datagen.Web
	// ClaimConfig controls direct claim-set generation for fusion.
	ClaimConfig = datagen.ClaimConfig
	// ClaimWorld is a generated claim set with ground truth.
	ClaimWorld = datagen.ClaimWorld
	// TemporalConfig controls multi-epoch snapshot generation.
	TemporalConfig = datagen.TemporalConfig
	// TemporalWorld is a sequence of evolving snapshots.
	TemporalWorld = datagen.TemporalWorld
)

var (
	// NewWorld generates an entity universe.
	NewWorld = datagen.NewWorld
	// BuildWeb lays a source population over a world and emits records.
	BuildWeb = datagen.BuildWeb
	// BuildClaims generates a claim world for fusion experiments.
	BuildClaims = datagen.BuildClaims
	// BuildTemporal evolves a web over multiple epochs.
	BuildTemporal = datagen.BuildTemporal
)

// Evaluation re-exports.
type (
	// PRF bundles precision, recall and F1.
	PRF = eval.PRF
	// BlockingQuality describes a candidate-pair set.
	BlockingQuality = eval.BlockingQuality
)

var (
	// EvalClusters scores a clustering against ground truth pairwise.
	EvalClusters = eval.Clusters
	// EvalPairs scores predicted match pairs against truth pairs.
	EvalPairs = eval.Pairs
	// EvalBlocking computes reduction ratio and pair completeness.
	EvalBlocking = eval.Blocking
	// EvalFusion computes value-level fusion accuracy.
	EvalFusion = eval.FusionAccuracy
)
