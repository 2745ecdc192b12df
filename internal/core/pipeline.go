// Package core orchestrates the end-to-end big-data-integration
// pipeline the ICDE 2013 tutorial describes: blocking → record linkage
// → schema alignment → data fusion, with the linkage-before-alignment
// ordering the tutorial advocates for identifier-rich domains (and the
// traditional schema-first ordering available for the ablation).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/blocking"
	"repro/internal/data"
	"repro/internal/fusion"
	"repro/internal/linkage"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/similarity"
)

// Order selects the pipeline stage ordering.
type Order int

const (
	// LinkageFirst links records on identifiers/text first and uses the
	// clusters as instance evidence for schema alignment — the
	// tutorial's recommended ordering at web scale.
	LinkageFirst Order = iota
	// SchemaFirst aligns schemas from names and value distributions
	// only, normalises, then links — the traditional ordering.
	SchemaFirst
)

// String names the ordering. Unknown values are reported as such, not
// passed off as linkage-first — Validate rejects them anyway.
func (o Order) String() string {
	switch o {
	case LinkageFirst:
		return "linkage-first"
	case SchemaFirst:
		return "schema-first"
	}
	return fmt.Sprintf("order(%d)", int(o))
}

// Sentinel errors for constructor-time misconfigurations. Validate and
// the Build* helpers wrap these with the offending name, so callers can
// branch with errors.Is while still seeing the typo in the message.
var (
	// ErrUnknownOrder is returned for stage orders outside the enum.
	ErrUnknownOrder = errors.New("core: unknown stage order")
	// ErrUnknownClusterer is returned for unrecognised clusterer names.
	ErrUnknownClusterer = errors.New("core: unknown clusterer")
	// ErrUnknownFuser is returned for unrecognised fuser names.
	ErrUnknownFuser = errors.New("core: unknown fuser")
)

// ZeroThreshold is the sentinel meaning "explicitly zero" for the
// threshold fields, whose literal zero value means "use the default"
// (a plain float64 cannot distinguish unset from 0).
const ZeroThreshold = -1.0

// Config controls a pipeline run. The zero value is usable.
type Config struct {
	Order Order

	// Blocking.
	BlockAttrs []string // token-blocking attributes; default {"title"}
	MaxBlock   int      // purge blocks larger than this; default 100
	MetaBlock  bool     // apply meta-blocking (ECBS/WEP) after token blocking

	// RankFusion replaces single-blocker candidate generation with
	// rank-fused multi-blocker generation: token, q-gram, MinHash LSH,
	// sorted-neighbourhood, phonetic and identifier blocking each
	// produce a ranked candidate stream (progressive emission order),
	// and the streams are fused with reciprocal-rank fusion so
	// consensus candidates come first — the ordering a ComparisonBudget
	// consumes.
	RankFusion bool
	// RRFK is the reciprocal-rank-fusion constant (score contribution
	// is 1/(RRFK+rank+1)); 0 means the default 60.
	RRFK float64

	// ComparisonBudget, when > 0, caps how many candidate pairs the
	// matcher scores: the candidate stream is consumed front-first and
	// matching stops at the budget — pay-as-you-go resolution, most
	// effective over a progressively ordered (rank-fused) stream.
	// Report.Comparisons records how many comparisons actually ran.
	ComparisonBudget int

	// Matching.
	IdentifierAttrs []string // exact-match attributes; default {"pid"}
	MatchAttrs      []string // comparator attributes; default {"title"}
	// MatchThreshold is the match decision threshold in [0,1]; zero
	// value means the default 0.6, ZeroThreshold means literally 0.
	MatchThreshold float64
	FellegiSunter  bool // train an FS matcher instead of threshold

	// Clustering: "components" (default), "center", "merge",
	// "correlation", or "swoosh" (merge-based resolution inside blocks:
	// accumulated evidence can link records no pair of originals
	// matches directly).
	Clusterer string

	// Schema alignment. Zero value means the default 0.5, ZeroThreshold
	// means literally 0.
	AlignThreshold float64

	// Fusion: "vote" (default), "weighted", "truthfinder", "accu",
	// "popaccu", "accucopy".
	Fuser string

	// Workers bounds every parallel stage (blocking, matching, fusion);
	// default NumCPU via parallel pkg. Results are identical for any
	// value.
	Workers int

	// Shards splits blocking's block building and pair generation into
	// this many data shards (0 or 1 = one shard per worker for block
	// building, unsharded pair generation). The shard plan depends only
	// on the data and this count, so output is identical for any value.
	Shards int

	// PairMemBudget, when > 0, bounds the bytes of packed pair codes
	// blocking holds in RAM. A pass whose raw pair codes exceed it
	// spills sorted runs to SpillDir and streams the deduplicated
	// candidates into matching through bounded batches instead of
	// materialising them. Output is identical either way.
	PairMemBudget int64

	// SpillDir is the directory for blocking spill runs ("" =
	// os.TempDir()).
	SpillDir string

	// StageTimeout, when positive, bounds each top-level stage (linkage,
	// alignment, fusion) with its own deadline. A stage that overruns is
	// cancelled at the next chunk boundary and RunCtx returns an error
	// satisfying errors.Is(err, context.DeadlineExceeded).
	StageTimeout time.Duration

	// Obs, when set, records per-stage metrics and the stage span tree
	// into the registry (falling back to obs.Default() when nil). A nil
	// registry with no process default disables recording at ~zero cost.
	Obs *obs.Registry
}

func (c *Config) defaults() {
	if len(c.BlockAttrs) == 0 {
		c.BlockAttrs = []string{"title"}
	}
	if c.MaxBlock <= 0 {
		c.MaxBlock = 100
	}
	if c.IdentifierAttrs == nil {
		c.IdentifierAttrs = []string{"pid"}
	}
	if len(c.MatchAttrs) == 0 {
		c.MatchAttrs = []string{"title"}
	}
	switch c.MatchThreshold {
	case 0:
		c.MatchThreshold = 0.6
	case ZeroThreshold:
		c.MatchThreshold = 0
	}
	if c.Clusterer == "" {
		c.Clusterer = "components"
	}
	switch c.AlignThreshold {
	case 0:
		c.AlignThreshold = 0.5
	case ZeroThreshold:
		c.AlignThreshold = 0
	}
	if c.Fuser == "" {
		c.Fuser = "vote"
	}
	if c.RRFK == 0 {
		c.RRFK = blocking.DefaultRRFK
	}
}

// Report is the full output of a pipeline run.
type Report struct {
	Candidates  int               // candidate pairs after blocking
	Comparisons int               // pairs the matcher actually scored (≤ Candidates under a budget)
	Matched     []data.ScoredPair // pairs the matcher accepted
	Clusters    data.Clustering   // linkage result

	Schema     *schema.MediatedSchema
	Transforms []schema.Transform
	Normalized *data.Dataset // records rewritten into the mediated schema

	Claims *data.ClaimSet // claims over (cluster, mediated attr)
	Fusion *fusion.Result

	StageTime map[string]time.Duration

	// Memoized serving snapshot (see Snapshot): built once on first
	// query, shared by every later Entities/Search call. Reports are
	// passed by pointer; the Once makes concurrent first queries safe.
	snapOnce sync.Once
	snap     *Snapshot
	snapErr  error
}

// Pipeline runs the configured integration flow.
type Pipeline struct {
	cfg Config
}

// New builds a pipeline, resolving config defaults.
func New(cfg Config) *Pipeline {
	cfg.defaults()
	return &Pipeline{cfg: cfg}
}

// Config returns the resolved configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Validate rejects configurations naming unknown components, so typos
// fail loudly instead of silently running defaults.
func (c Config) Validate() error {
	switch c.Order {
	case LinkageFirst, SchemaFirst:
	default:
		return fmt.Errorf("%w %v (want linkage-first or schema-first)", ErrUnknownOrder, c.Order)
	}
	switch c.Clusterer {
	case "", "components", "center", "merge", "correlation", "swoosh":
	default:
		return fmt.Errorf("%w %q (want components, center, merge, correlation or swoosh)", ErrUnknownClusterer, c.Clusterer)
	}
	if _, err := BuildFuser(c.Fuser); err != nil {
		return err
	}
	if t := c.MatchThreshold; t != ZeroThreshold && (t < 0 || t > 1) {
		return fmt.Errorf("core: match threshold %f out of [0,1]", t)
	}
	if t := c.AlignThreshold; t != ZeroThreshold && (t < 0 || t > 1) {
		return fmt.Errorf("core: align threshold %f out of [0,1]", t)
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: negative shard count %d", c.Shards)
	}
	if c.PairMemBudget < 0 {
		return fmt.Errorf("core: negative pair-memory budget %d", c.PairMemBudget)
	}
	if c.RRFK < 0 {
		return fmt.Errorf("core: negative RRF constant %f", c.RRFK)
	}
	if c.ComparisonBudget < 0 {
		return fmt.Errorf("core: negative comparison budget %d", c.ComparisonBudget)
	}
	return nil
}

// reg resolves the pipeline's metrics registry (explicit config beats
// the process default; nil disables).
func (p *Pipeline) reg() *obs.Registry { return obs.OrDefault(p.cfg.Obs) }

// Run executes the pipeline over a dataset with no cancellation. Stage
// timings are recorded as a span tree rooted at "pipeline" (visible in
// metric snapshots when a registry is attached); Report.StageTime is
// derived from that tree, so its keys and values match the historical
// ad-hoc bookkeeping.
func (p *Pipeline) Run(d *data.Dataset) (*Report, error) {
	return p.RunCtx(context.Background(), d)
}

// RunCtx is Run under a context: cancelling ctx stops the pipeline at
// the next parallel chunk boundary and returns an error satisfying
// errors.Is(err, ctx.Err()). Config.StageTimeout additionally bounds
// each top-level stage with its own deadline.
func (p *Pipeline) RunCtx(ctx context.Context, d *data.Dataset) (*Report, error) {
	if err := p.cfg.Validate(); err != nil {
		return nil, err
	}
	if d == nil || d.NumRecords() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	rep := &Report{StageTime: map[string]time.Duration{}}
	// StartSpan returns a live span even on a nil registry, so the
	// StageTime derivation below never depends on observability being on.
	root := p.reg().StartSpan("pipeline")
	var err error
	switch p.cfg.Order {
	case SchemaFirst:
		rep, err = p.runSchemaFirst(ctx, d, rep, root)
	default:
		rep, err = p.runLinkageFirst(ctx, d, rep, root)
	}
	root.End()
	if err != nil {
		return nil, err
	}
	for _, sp := range root.Children() {
		rep.StageTime[sp.Name()] += sp.Duration()
	}
	return rep, nil
}

// stageCtx derives the per-stage context: the run context, further
// bounded by StageTimeout when configured. The returned cancel must be
// called when the stage ends to release the timer.
func (p *Pipeline) stageCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.cfg.StageTimeout > 0 {
		return context.WithTimeout(ctx, p.cfg.StageTimeout)
	}
	return context.WithCancel(ctx)
}

// runStage runs one top-level stage under its derived context, mapping
// a stage-deadline overrun back to context.DeadlineExceeded even when
// the stage surfaced it through a wrapped parallel error.
func (p *Pipeline) runStage(ctx context.Context, name string, f func(context.Context) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %s stage: %w", name, err)
	}
	sctx, cancel := p.stageCtx(ctx)
	defer cancel()
	if err := f(sctx); err != nil {
		return fmt.Errorf("core: %s stage: %w", name, err)
	}
	return nil
}

func (p *Pipeline) runLinkageFirst(ctx context.Context, d *data.Dataset, rep *Report, root *obs.Span) (*Report, error) {
	if err := p.runStage(ctx, "linkage", func(sctx context.Context) error {
		return p.linkStage(sctx, d, rep, root)
	}); err != nil {
		return nil, err
	}
	if err := p.runStage(ctx, "alignment", func(sctx context.Context) error {
		return p.alignStage(sctx, d, rep, rep.Clusters, root)
	}); err != nil {
		return nil, err
	}
	if err := p.runStage(ctx, "fusion", func(sctx context.Context) error {
		return p.fuseStage(sctx, rep, root)
	}); err != nil {
		return nil, err
	}
	return rep, nil
}

func (p *Pipeline) runSchemaFirst(ctx context.Context, d *data.Dataset, rep *Report, root *obs.Span) (*Report, error) {
	// Align with name+instance evidence only (no clusters yet).
	if err := p.runStage(ctx, "alignment", func(sctx context.Context) error {
		return p.alignStage(sctx, d, rep, nil, root)
	}); err != nil {
		return nil, err
	}
	// Link over the normalised dataset.
	if err := p.runStage(ctx, "linkage", func(sctx context.Context) error {
		return p.linkStage(sctx, rep.Normalized, rep, root)
	}); err != nil {
		return nil, err
	}
	// Rebuild claims with the final clusters.
	if err := p.runStage(ctx, "fusion", func(sctx context.Context) error {
		return p.fuseStage(sctx, rep, root)
	}); err != nil {
		return nil, err
	}
	return rep, nil
}

// linkStage: blocking → matching → clustering. Candidates stay packed
// inside the blocking engine's CandidateSet all the way to the matcher.
func (p *Pipeline) linkStage(ctx context.Context, d *data.Dataset, rep *Report, root *obs.Span) error {
	reg := p.reg()
	records := d.Records()

	sp := root.Child("blocking")
	eng := blocking.NewEngineOpts(records, blocking.Opts{
		Workers:       p.cfg.Workers,
		Shards:        p.cfg.Shards,
		PairMemBudget: p.cfg.PairMemBudget,
		SpillDir:      p.cfg.SpillDir,
		Obs:           reg,
		Ctx:           ctx,
	})
	var cs *blocking.CandidateSet
	if p.cfg.RankFusion {
		// Multi-blocker rank fusion: every blocker contributes a
		// ranked stream, RRF orders consensus candidates first, and
		// the fused stream feeds matching front-first (the order a
		// ComparisonBudget pays for).
		cs = eng.FuseRanked(p.cfg.RRFK, p.rankedBlockers()...)
	} else {
		idx := eng.Blocks(blocking.TokenKey(p.cfg.BlockAttrs...)).Purge(p.cfg.MaxBlock)
		var base *blocking.CandidateSet
		if p.cfg.MetaBlock {
			base = blocking.MetaBlocker{
				Weight: blocking.ECBS, Prune: blocking.WEP, Workers: p.cfg.Workers, Obs: reg,
			}.Pruned(idx)
		} else {
			base = idx.CandidateSet()
		}
		// Identifier blocking always contributes candidates: records
		// sharing an identifier must be compared no matter what. It
		// shares the engine's interning, so the union dedups on packed
		// codes without leaving rank space.
		sets := []*blocking.CandidateSet{base}
		for _, attr := range p.cfg.IdentifierAttrs {
			sets = append(sets, eng.Blocks(blocking.AttrExactKey(attr)).CandidateSet())
		}
		cs = blocking.UnionCandidates(sets...)
		// The union retains any spill runs it shares with its inputs, so
		// the inputs release their references now and the union's Close
		// (deferred to stage end) drops the last one. Close is a no-op on
		// in-memory sets, and UnionCandidates may return an input
		// unchanged — that one keeps its reference.
		for _, s := range sets {
			if s != cs {
				s.Close()
			}
		}
	}
	// Err surfaces any cancellation or worker panic the engine's sink
	// recorded; the recorded error already names the failing pass.
	if err := eng.Err(); err != nil {
		cs.Close()
		sp.End()
		return err
	}
	defer cs.Close()
	rep.Candidates = cs.Len()
	reg.Counter("blocking.candidates").Add(int64(rep.Candidates))
	sp.End()

	sp = root.Child("matching")
	// Only Fellegi–Sunter training needs a pair slice; everything else
	// consumes the packed set directly.
	matcher, err := p.buildMatcher(d, cs.Pairs, sp)
	if err != nil {
		sp.End()
		return err
	}
	// One path for every candidate set: in memory or spilled, budgeted
	// (ComparisonBudget > 0 stops front-first at the budget) or not.
	rep.Matched, rep.Comparisons, err = linkage.MatchBudgetedCtx(ctx, d, cs, matcher, p.cfg.ComparisonBudget, p.cfg.Workers, reg)
	if err != nil {
		sp.End()
		return fmt.Errorf("matching: %w", err)
	}
	sp.End()

	sp = root.Child("clustering")
	if p.cfg.Clusterer == "swoosh" {
		clusters, err := p.swooshCluster(ctx, d, records, rep.Matched, matcher)
		if err != nil {
			sp.End()
			return err
		}
		rep.Clusters = clusters
	} else {
		var ids []string
		for _, r := range records {
			ids = append(ids, r.ID)
		}
		rep.Clusters = p.buildClusterer().Cluster(ids, rep.Matched)
	}
	sp.End()
	reg.Counter("clustering.clusters").Add(int64(len(rep.Clusters)))
	multi := 0
	for _, cl := range rep.Clusters {
		if len(cl) > 1 {
			multi++
		}
	}
	reg.Counter("clustering.multi_record_clusters").Add(int64(multi))
	return nil
}

// rankedBlockers assembles the multi-blocker producer set for rank
// fusion: identifier blocking (the strongest signal, so its streams
// rank their pairs at the very front), token blocking over the
// configured attributes, q-gram and phonetic blocking tolerating typos
// and misspellings, sorted neighbourhood for near-sorted corruption,
// and MinHash LSH for set similarity without key engineering. Key
// blockers purge at MaxBlock like the single-blocker path.
func (p *Pipeline) rankedBlockers() []blocking.RankedBlocker {
	var bs []blocking.RankedBlocker
	for _, attr := range p.cfg.IdentifierAttrs {
		bs = append(bs, blocking.RankedKey{Name: "id:" + attr, Key: blocking.AttrExactKey(attr)})
	}
	bs = append(bs, blocking.RankedKey{
		Name: "token", Key: blocking.TokenKey(p.cfg.BlockAttrs...), MaxBlock: p.cfg.MaxBlock,
	})
	lead := p.cfg.BlockAttrs[0]
	bs = append(bs,
		blocking.RankedKey{Name: "qgram", Key: blocking.QGramKey(lead, 3), MaxBlock: p.cfg.MaxBlock},
		blocking.RankedKey{Name: "phonetic", Key: blocking.PhoneticKey(lead, "soundex"), MaxBlock: p.cfg.MaxBlock},
	)
	var snKeys []blocking.KeyFunc
	for _, attr := range p.cfg.BlockAttrs {
		snKeys = append(snKeys, blocking.AttrExactKey(attr))
	}
	bs = append(bs,
		blocking.RankedSortedNeighborhood{Name: "sortedneighborhood", Keys: snKeys, Window: 5},
		blocking.RankedMinHash{Name: "minhash", MinHash: blocking.MinHashLSH{Attrs: p.cfg.BlockAttrs}},
	)
	return bs
}

// swooshCluster runs R-Swoosh within each connected component of the
// match graph (the candidate groups), so merged evidence can recruit
// records the pairwise matcher missed, without paying O(n²) over the
// whole corpus.
func (p *Pipeline) swooshCluster(ctx context.Context, d *data.Dataset, records []*data.Record,
	matched []data.ScoredPair, matcher linkage.Matcher) (data.Clustering, error) {
	var ids []string
	for _, r := range records {
		ids = append(ids, r.ID)
	}
	coarse := (linkage.ConnectedComponents{}).Cluster(ids, matched)
	uf := linkage.NewUnionFind()
	for _, id := range ids {
		uf.Add(id)
	}
	sw := linkage.Swoosh{Matcher: matcher}
	for _, group := range coarse {
		if len(group) < 2 {
			continue
		}
		// Groups resolve sequentially, so the group boundary is the
		// cancellation granularity for this clusterer.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("swoosh clustering: %w", err)
		}
		recs := make([]*data.Record, 0, len(group))
		for _, id := range group {
			if r := d.Record(id); r != nil {
				recs = append(recs, r)
			}
		}
		resolved, _, err := sw.Resolve(recs)
		if err != nil {
			return nil, fmt.Errorf("swoosh clustering: %w", err)
		}
		for _, cl := range resolved {
			for i := 1; i < len(cl); i++ {
				uf.Union(cl[0], cl[i])
			}
		}
	}
	out := data.Clustering{}
	for _, set := range uf.Sets() {
		out = append(out, set)
	}
	return out, nil
}

func (p *Pipeline) buildMatcher(d *data.Dataset, candidates func() []data.Pair, sp *obs.Span) (linkage.Matcher, error) {
	attrs := append([]string(nil), p.cfg.MatchAttrs...)
	if p.cfg.FellegiSunter {
		// A probabilistic matcher needs several comparison fields to
		// separate the classes; widen with the most frequent attributes
		// (the ones many sources kept under their canonical names).
		attrs = append(attrs, topAttrs(d, 5, attrs)...)
	}
	fields := make([]similarity.FieldWeight, 0, len(attrs))
	for _, a := range attrs {
		w := 1.0
		if a == "title" {
			w = 2
		}
		fields = append(fields, similarity.FieldWeight{Attr: a, Weight: w, Metric: similarity.Jaccard})
	}
	cmp := similarity.NewRecordComparator(fields...)
	cmp.AttachObs(p.reg())
	if p.cfg.FellegiSunter {
		fs := linkage.NewFellegiSunter(cmp)
		fs.Threshold = 0.9
		fs.AgreeAt = 0.7
		train := sp.Child("train")
		err := fs.Train(d, candidates(), 15)
		train.End()
		if err != nil {
			return nil, fmt.Errorf("core: training matcher: %w", err)
		}
		return &fsWithIdentifier{fs: fs, exact: p.cfg.IdentifierAttrs}, nil
	}
	return linkage.RuleMatcher{
		Exact:      p.cfg.IdentifierAttrs,
		Comparator: cmp,
		Threshold:  p.cfg.MatchThreshold,
	}, nil
}

// fsWithIdentifier short-circuits identifier equality ahead of the
// probabilistic model, mirroring RuleMatcher's behaviour.
type fsWithIdentifier struct {
	fs    *linkage.FellegiSunter
	exact []string
}

// PrepareIndexIDs implements linkage.IDIndexPreparer.
func (m *fsWithIdentifier) PrepareIndexIDs(d *data.Dataset, ids []string) {
	m.fs.PrepareIndexIDs(d, ids)
}

// Match implements linkage.Matcher.
func (m *fsWithIdentifier) Match(a, b *data.Record) (float64, bool) {
	for _, attr := range m.exact {
		va, vb := a.Get(attr), b.Get(attr)
		if !va.IsNull() && !vb.IsNull() && va.Key() == vb.Key() {
			return 1, true
		}
	}
	return m.fs.Match(a, b)
}

func (p *Pipeline) buildClusterer() linkage.Clusterer {
	switch p.cfg.Clusterer {
	case "center":
		return linkage.Center{}
	case "merge":
		return linkage.MergeCenter{}
	case "correlation":
		return linkage.CorrelationClustering{MinScore: p.cfg.MatchThreshold}
	default:
		return linkage.ConnectedComponents{}
	}
}

// alignStage: profiling → column view → (optional linkage evidence) →
// mediated schema → transforms → normalisation. Every phase takes ctx.
func (p *Pipeline) alignStage(ctx context.Context, d *data.Dataset, rep *Report, clusters data.Clustering, root *obs.Span) error {
	reg := p.reg()
	sp := root.Child("alignment")
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return err
	}
	sub := sp.Child("align")
	cols, ms, err := p.align(ctx, d, clusters)
	sub.End()
	if err != nil {
		return fmt.Errorf("schema alignment: %w", err)
	}
	rep.Schema = ms
	if clusters != nil {
		sub = sp.Child("transforms")
		rep.Transforms, err = schema.DiscoverTransforms(ctx, cols, clusters, ms, 3)
		sub.End()
		if err != nil {
			return fmt.Errorf("transform discovery: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sub = sp.Child("normalize")
	rep.Normalized = schema.NewNormalizer(ms, rep.Transforms).ApplyAll(cols)
	sub.End()
	reg.Counter("alignment.mediated_attrs").Add(int64(len(ms.Attrs)))
	reg.Counter("alignment.transforms").Add(int64(len(rep.Transforms)))
	return nil
}

// align profiles d, builds the column view the whole stage reads and
// clusters the profiles, under linkage evidence when clusters are given.
func (p *Pipeline) align(ctx context.Context, d *data.Dataset, clusters data.Clustering) (*schema.Columns, *schema.MediatedSchema, error) {
	profiles := schema.Profiler{}.Build(d)
	cols, err := schema.NewColumns(ctx, d, profiles)
	if err != nil {
		return nil, nil, err
	}
	aligner := schema.Aligner{Evidence: cols.Combined, Threshold: p.cfg.AlignThreshold, Ctx: ctx, Workers: p.cfg.Workers}
	if clusters != nil {
		le, err := schema.NewLinkageEvidence(ctx, cols, clusters, p.cfg.Workers)
		if err != nil {
			return nil, nil, err
		}
		aligner.Evidence = le.Blend
	}
	ms, err := aligner.Align(profiles)
	return cols, ms, err
}

// fuseStage: claims over (cluster, mediated attribute) → fusion.
func (p *Pipeline) fuseStage(ctx context.Context, rep *Report, root *obs.Span) error {
	if rep.Normalized == nil || rep.Clusters == nil {
		return fmt.Errorf("fusion requires alignment and linkage results")
	}
	sp := root.Child("fusion")
	defer sp.End()
	sub := sp.Child("claims")
	var attrs []string
	for _, ma := range rep.Schema.Attrs {
		attrs = append(attrs, ma.Name)
	}
	attrs = dedupeStrings(attrs)
	rep.Claims = data.ClaimsFromClusters(rep.Normalized, rep.Clusters, attrs)
	sub.End()
	fuser, err := BuildFuserCtx(ctx, p.cfg.Fuser, p.cfg.Workers, p.reg())
	if err != nil {
		return err
	}
	res, err := fuser.Fuse(rep.Claims)
	if err != nil {
		return fmt.Errorf("fusion: %w", err)
	}
	rep.Fusion = res
	return nil
}

// BuildFuser resolves a fuser by name with the default worker pool.
func BuildFuser(name string) (fusion.Fuser, error) {
	return BuildFuserWith(name, 0)
}

// BuildFuserWith resolves a fuser by name with an explicit worker
// bound (0 = NumCPU). Fusion output is identical for any worker count.
func BuildFuserWith(name string, workers int) (fusion.Fuser, error) {
	return BuildFuserObs(name, workers, nil)
}

// BuildFuserObs is BuildFuserWith with an attached metrics registry:
// the fuser records "fusion." index sizes and EM convergence metrics.
func BuildFuserObs(name string, workers int, reg *obs.Registry) (fusion.Fuser, error) {
	return BuildFuserCtx(nil, name, workers, reg)
}

// BuildFuserCtx is BuildFuserObs with a cancellation context wired into
// the fuser's parallel passes (nil never cancels). Unknown names return
// an error wrapping ErrUnknownFuser.
func BuildFuserCtx(ctx context.Context, name string, workers int, reg *obs.Registry) (fusion.Fuser, error) {
	switch name {
	case "", "vote":
		return fusion.MajorityVote{Workers: workers, Obs: reg, Ctx: ctx}, nil
	case "truthfinder":
		return fusion.TruthFinder{Workers: workers, Obs: reg, Ctx: ctx}, nil
	case "accu":
		return fusion.ACCU{Workers: workers, Obs: reg, Ctx: ctx}, nil
	case "popaccu":
		return fusion.ACCU{Popularity: true, Workers: workers, Obs: reg, Ctx: ctx}, nil
	case "accucopy":
		return fusion.ACCUCOPY{Accu: fusion.ACCU{Workers: workers, Obs: reg, Ctx: ctx}}, nil
	case "numeric":
		return fusion.NumericFusion{}, nil
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownFuser, name)
	}
}

// topAttrs returns the k most frequent attributes in the dataset,
// excluding identifiers, bookkeeping fields and already-chosen attrs.
func topAttrs(d *data.Dataset, k int, exclude []string) []string {
	skip := map[string]bool{"title": true, "pid": true, "epoch": true}
	for _, a := range exclude {
		skip[a] = true
	}
	counts := d.Attributes()
	// Sort by count desc, name asc for determinism.
	for i := 1; i < len(counts); i++ {
		for j := i; j > 0; j-- {
			a, b := counts[j-1], counts[j]
			if b.Count > a.Count || (b.Count == a.Count && b.Attr < a.Attr) {
				counts[j-1], counts[j] = b, a
			} else {
				break
			}
		}
	}
	var out []string
	for _, ac := range counts {
		if skip[ac.Attr] {
			continue
		}
		out = append(out, ac.Attr)
		if len(out) == k {
			break
		}
	}
	return out
}

func dedupeStrings(ss []string) []string {
	seen := map[string]bool{}
	out := ss[:0:0]
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
