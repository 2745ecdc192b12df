package bdi

import (
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/fusion"
	"repro/internal/linkage"
	"repro/internal/schema"
	"repro/internal/similarity"
	"repro/internal/temporal"
	"repro/internal/tokenize"
)

// Stage-level public API: the individual pipeline components for users
// who compose their own flows instead of running the end-to-end
// Pipeline.

// Similarity.
type (
	// Metric is a string-similarity function in [0,1].
	Metric = similarity.Metric
	// FieldWeight assigns a comparison weight and metric to an attribute.
	FieldWeight = similarity.FieldWeight
	// RecordComparator scores record pairs by weighted field similarity.
	RecordComparator = similarity.RecordComparator
	// FeatureIndex caches per-record tokenisation for one comparator so
	// matching tokenises each record once, not once per pair; set
	// metrics score from the cached word IDs, every other metric
	// (TFIDF included, against its own corpus) through its function.
	// Its dictionary of word IDs is never renumbered behind the caller:
	// a long-lived owner, such as the stream, bounds it (Renumber).
	// Entries are keyed by record: Add(r) adds r's, Remove(r) drops it,
	// and a caller replacing a record removes the old one.
	FeatureIndex = similarity.FeatureIndex
	// Corpus holds document frequencies for TF-IDF weighting.
	Corpus = tokenize.Corpus
)

var (
	// NewRecordComparator builds a comparator over weighted fields.
	NewRecordComparator = similarity.NewRecordComparator
	// UniformComparator weights the given attributes equally.
	UniformComparator = similarity.UniformComparator
	// NamedMetric resolves a built-in metric by name ("jaccard",
	// "jarowinkler", "levenshtein", ...).
	NamedMetric = similarity.Named
	// Jaccard is word-set Jaccard similarity.
	Jaccard = similarity.Jaccard
	// JaroWinkler is prefix-boosted Jaro similarity.
	JaroWinkler = similarity.JaroWinkler
	// Levenshtein is the unit-cost edit distance.
	Levenshtein = similarity.Levenshtein
	// TFIDF is corpus-weighted cosine similarity as a Metric.
	TFIDF = similarity.TFIDF
	// BuildFeatureIndex(records, comparator, workers) precomputes the
	// comparator's features for a record set; only that comparator
	// reads the index. It takes no corpus: a TFIDF field scores
	// against the corpus its metric was built with.
	BuildFeatureIndex = similarity.BuildFeatureIndex
	// NewCorpus returns an empty TF-IDF corpus.
	NewCorpus = tokenize.NewCorpus
)

// Blocking.
type (
	// Blocker is a candidate-generation technique (StandardBlocking,
	// SortedNeighborhood, ...): a value whose Candidates runs it as a
	// pass over a BlockingEngine, on the engine's workers, registry,
	// context and error sink.
	Blocker = blocking.Blocker
	// KeyFunc derives blocking keys from a record.
	KeyFunc = blocking.KeyFunc
	// StandardBlocking is classic key blocking.
	StandardBlocking = blocking.Standard
	// SortedNeighborhood is windowed sorted-key blocking.
	SortedNeighborhood = blocking.SortedNeighborhood
	// MetaBlocker prunes a redundancy-positive block collection on the
	// collection's engine.
	MetaBlocker = blocking.MetaBlocker
	// BlockingEngine interns record IDs once for several blocking
	// passes over the same records.
	BlockingEngine = blocking.Engine
	// BlockingOpts configures NewBlockingEngine (workers, shards,
	// pair-memory budget, metrics, cancellation).
	BlockingOpts = blocking.Opts
	// IndexedBlocks is the block collection an engine pass produces:
	// records grouped by blocking key, interned to dense ranks.
	IndexedBlocks = blocking.Indexed
	// CandidateSet is a deduplicated candidate collection packed as
	// uint64 rank codes; it streams into MatchStream without a pair
	// slice ever existing.
	CandidateSet = blocking.CandidateSet
)

// Edge-weighting and pruning schemes for MetaBlocker.
const (
	CBSWeight  = blocking.CBS
	ECBSWeight = blocking.ECBS
	JSWeight   = blocking.JS
	WEPPrune   = blocking.WEP
	CEPPrune   = blocking.CEP
	WNPPrune   = blocking.WNP
)

var (
	// TokenBlockingKey emits one key per token of the given attributes.
	TokenBlockingKey = blocking.TokenKey
	// ExactBlockingKey blocks on the normalised attribute value.
	ExactBlockingKey = blocking.AttrExactKey
	// PrefixBlockingKey blocks on a value prefix.
	PrefixBlockingKey = blocking.AttrPrefixKey
	// QGramBlockingKey blocks on padded q-grams.
	QGramBlockingKey = blocking.QGramKey
	// NewBlockingEngine interns record IDs for sharded block building
	// and every technique's pass; errors along the derived chain stick
	// to the engine (read Err), none panics.
	NewBlockingEngine = blocking.NewEngineOpts
)

// Matching and clustering.
type (
	// Matcher decides whether a candidate pair co-refers.
	Matcher = linkage.Matcher
	// ThresholdMatcher wraps a comparator with a decision threshold.
	ThresholdMatcher = linkage.ThresholdMatcher
	// RuleMatcher matches on identifier equality with a comparator
	// fallback.
	RuleMatcher = linkage.RuleMatcher
	// FellegiSunter is the EM-trained probabilistic matcher.
	FellegiSunter = linkage.FellegiSunter
	// Clusterer turns scored match edges into entity clusters.
	Clusterer = linkage.Clusterer
	// ConnectedComponents clusters by transitive closure.
	ConnectedComponents = linkage.ConnectedComponents
	// CenterClustering is precision-oriented center clustering.
	CenterClustering = linkage.Center
	// MergeCenterClustering merges directly linked centers.
	MergeCenterClustering = linkage.MergeCenter
	// CorrelationClustering is pivot-based correlation clustering.
	CorrelationClustering = linkage.CorrelationClustering
	// IncrementalLinker links a stream of records online.
	IncrementalLinker = linkage.Incremental
	// PairSlice adapts a materialised pair slice to the candidate
	// stream MatchStream and MatchBudgeted consume: it ranks its
	// distinct IDs and emits each pair as a rank code.
	PairSlice = linkage.PairSlice
)

var (
	// NewFellegiSunter returns an untrained probabilistic matcher.
	NewFellegiSunter = linkage.NewFellegiSunter
	// MatchStream scores a candidate stream of rank codes (a
	// CandidateSet, or a pair slice through PairSlice) in parallel
	// bounded batches, building the matcher's feature index once on the
	// same workers, and decodes only the accepted pairs; a nil registry
	// records nothing.
	MatchStream = linkage.MatchStreamCtx
	// MatchBudgeted is MatchStream stopping front-first at a
	// comparison budget (0 = unlimited); it also reports how many
	// comparisons ran.
	MatchBudgeted = linkage.MatchBudgetedCtx
	// NoIndexMatcher hides a matcher's comparator, so neither matching
	// nor an incremental linker builds or maintains its feature cache —
	// the uncached baseline for benchmarks and ablations.
	NoIndexMatcher = linkage.NoIndex
	// NewIncrementalLinker returns an empty online linker.
	NewIncrementalLinker = linkage.NewIncremental
	// TitleTokenKey is the default online blocking key (title tokens).
	TitleTokenKey = linkage.TitleTokenKey
)

// Schema alignment.
type (
	// SourceAttr identifies one attribute of one source.
	SourceAttr = schema.SourceAttr
	// AttrProfile summarises one source attribute's observed values.
	AttrProfile = schema.Profile
	// SchemaAligner clusters attribute profiles into a mediated schema.
	SchemaAligner = schema.Aligner
	// MediatedSchema is a probabilistic global schema.
	MediatedSchema = schema.MediatedSchema
	// AttrTransform is a discovered numeric unit conversion.
	AttrTransform = schema.Transform
	// SchemaNormalizer rewrites records into the mediated schema.
	SchemaNormalizer = schema.Normalizer
	// AttrProfiler builds attribute profiles from a dataset.
	AttrProfiler = schema.Profiler
	// LinkageEvidence derives alignment evidence from linked clusters.
	LinkageEvidence = schema.LinkageEvidence
	// AttrColumns is the interned attribute-column view of a dataset that
	// linkage evidence, transform discovery and normalisation read.
	AttrColumns = schema.Columns
)

var (
	// NewAttrColumns builds the column view of a dataset under profiles.
	NewAttrColumns = schema.NewColumns
	// NewLinkageEvidence scans co-linked records for attribute agreement.
	NewLinkageEvidence = schema.NewLinkageEvidence
	// DiscoverTransforms finds unit conversions between aligned attrs.
	DiscoverTransforms = schema.DiscoverTransforms
	// NewSchemaNormalizer prepares mediated-schema rewriting.
	NewSchemaNormalizer = schema.NewNormalizer
)

// Fusion.
type (
	// MajorityVote picks the most-claimed value per item.
	MajorityVote = fusion.MajorityVote
	// WeightedVote votes with per-source weights.
	WeightedVote = fusion.WeightedVote
	// TruthFinder is the iterative trust model of Yin et al.
	TruthFinder = fusion.TruthFinder
	// ACCU is the Bayesian source-accuracy model (POPACCU via field).
	ACCU = fusion.ACCU
	// ACCUCOPY interleaves ACCU with copy detection.
	ACCUCOPY = fusion.ACCUCOPY
	// CopyDetector scores pairwise source-copying posteriors.
	CopyDetector = fusion.CopyDetector
	// SourcePair is an unordered pair of source IDs.
	SourcePair = fusion.SourcePair
	// NumericFusion fuses continuous claims by robust location
	// estimation (median / mean / accuracy-weighted mean).
	NumericFusion = fusion.NumericFusion
	// DirectedCopy is an inferred copier→original edge.
	DirectedCopy = fusion.DirectedCopy
)

// InferCopyDirections decides who copies whom among dependent pairs.
var InferCopyDirections = fusion.InferDirections

// Temporal linkage.
type (
	// TemporalMatcher scores record pairs with time-decayed
	// disagreement.
	TemporalMatcher = temporal.Matcher
)

var (
	// NewTemporalMatcher returns a matcher with default decay.
	NewTemporalMatcher = temporal.NewMatcher
	// LearnDecay estimates per-attribute drift rates from labelled
	// clusters.
	LearnDecay = temporal.LearnDecay
	// FitTemporalMatcher builds a matcher with learned decay rates.
	FitTemporalMatcher = temporal.FitMatcher
)

// Extension surface: merge-based ER, online fusion, schema ensembles
// and pay-as-you-go feedback.
type (
	// Swoosh is R-Swoosh merge-based entity resolution.
	Swoosh = linkage.Swoosh
	// OnlineFusion probes sources best-first with early termination.
	OnlineFusion = fusion.Online
	// OnlineFusionResult extends FusionResult with probe statistics.
	OnlineFusionResult = fusion.OnlineResult
	// SchemaEnsemble is a probabilistic mediated-schema ensemble.
	SchemaEnsemble = schema.Ensemble
	// SchemaFeedback runs the pay-as-you-go ask-and-realign loop.
	SchemaFeedback = schema.Feedback
	// SchemaOracle answers attribute-correspondence questions.
	SchemaOracle = schema.Oracle
	// IntegratedEntity is a fused entity materialised from a report.
	IntegratedEntity = core.Entity
	// SearchHit is one keyword-query result over integrated entities.
	SearchHit = core.Hit
)

var (
	// UnionMerge is the default Swoosh merge function.
	UnionMerge = linkage.UnionMerge
	// BuildSchemaEnsemble aligns at several thresholds and weights the
	// resulting candidate schemas.
	BuildSchemaEnsemble = schema.BuildEnsemble
)

// Source discovery (the pipeline's front end).
type (
	// SimWeb is a simulated web of product and noise sites with a
	// keyword index.
	SimWeb = discovery.SimWeb
	// SimWebConfig controls simulated-web construction.
	SimWebConfig = discovery.SimWebConfig
	// SourceCrawler discovers sources by identifier redundancy.
	SourceCrawler = discovery.Crawler
	// DiscoveryResult reports a crawl's admissions and per-iteration
	// quality.
	DiscoveryResult = discovery.Result
)

var (
	// BuildSimWeb wraps a generated web's sources as sites plus noise.
	BuildSimWeb = discovery.BuildSimWeb
	// NewSourceCrawler returns a crawler with standard settings.
	NewSourceCrawler = discovery.NewCrawler
)
