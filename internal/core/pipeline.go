// Package core orchestrates the end-to-end big-data-integration
// pipeline the ICDE 2013 tutorial describes: blocking → record linkage
// → schema alignment → data fusion, with the linkage-before-alignment
// ordering the tutorial advocates for identifier-rich domains (and the
// traditional schema-first ordering available for the ablation).
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/blocking"
	"repro/internal/data"
	"repro/internal/fusion"
	"repro/internal/linkage"
	"repro/internal/obs"
	"repro/internal/schema"
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

// ParseOrder is the inverse of Order.String: it resolves
// "linkage-first" and "schema-first", and any other name returns an
// error wrapping ErrUnknownOrder.
func ParseOrder(name string) (Order, error) {
	for _, o := range []Order{LinkageFirst, SchemaFirst} {
		if name == o.String() {
			return o, nil
		}
	}
	return 0, fmt.Errorf("%w %q (want linkage-first or schema-first)", ErrUnknownOrder, name)
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

// The pipeline's fixed blocking and alignment settings.
const (
	// purgeBound purges token blocks larger than this many records
	// (rank fusion's key blockers purge at it too).
	purgeBound = 100
	// alignThreshold is the schema aligner's attribute-match threshold.
	alignThreshold = 0.5
)

// Config controls a pipeline run. The zero value is usable.
type Config struct {
	Order Order

	// Blocking: token blocking on the title, purged at purgeBound, plus
	// identifier blocking on pid.
	MetaBlock bool // apply meta-blocking (ECBS/WEP) after token blocking

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

	// Matching: the default rule (rule.go) on the title, pid equality
	// short-circuiting it. MatchThreshold is its decision threshold in
	// [0,1]; zero value means the default 0.6, ZeroThreshold means
	// literally 0.
	MatchThreshold float64
	FellegiSunter  bool // train an FS matcher instead of threshold

	// Clustering: "components" (default), "center", "merge",
	// "correlation", or "swoosh" (merge-based resolution inside blocks:
	// accumulated evidence can link records no pair of originals
	// matches directly).
	Clusterer string

	// Fusion, one of FuserNames: "vote" (default), "truthfinder", "accu",
	// "popaccu", "accucopy", or "numeric" — sequential, it takes no
	// workers, context or registry.
	Fuser string

	// Workers bounds every parallel stage (blocking, matching, fusion);
	// 0 means NumCPU and a negative count is a validation error.
	// Results are identical for any value.
	Workers int

	// Shards partitions blocking's block building and RRF accumulation
	// (0 = one per worker) and spill-run generation (0 = one); it never
	// changes output and has no effect on an in-memory pair sweep.
	Shards int

	// PairMemBudget, when > 0, bounds the bytes of packed pair codes
	// blocking holds in RAM. A pass whose raw pair codes exceed it
	// spills sorted runs to SpillDir and streams the deduplicated
	// candidates into matching through bounded batches instead of
	// materialising them. Output is identical either way. It bounds
	// nothing else: the dataset, feature index, interning tables and
	// edge list stay resident (link_scale's ≈ 440 MB live heap sits
	// beside a 4.9 MB pair budget).
	PairMemBudget int64

	// SpillDir is the directory for blocking spill runs ("" =
	// os.TempDir()).
	SpillDir string

	// Obs, when set, records per-stage metrics and the stage span tree
	// into the registry (falling back to obs.Default() when nil). A nil
	// registry with no process default disables recording at ~zero cost.
	Obs *obs.Registry
}

func (c *Config) defaults() {
	c.MatchThreshold = resolveThreshold(c.MatchThreshold)
	if c.Clusterer == "" {
		c.Clusterer = "components"
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
	if _, err := BuildFuser(context.Background(), c.Fuser, 0, nil); err != nil {
		return err
	}
	if err := checkThreshold("match", c.MatchThreshold); err != nil {
		return err
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", c.Workers)
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
// errors.Is(err, ctx.Err()); a stage error keeps its cause (%w) and
// names the stage.
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
	for _, st := range p.stages(d, rep, root) {
		if err = ctx.Err(); err == nil {
			err = st.run(ctx)
		}
		if err != nil {
			err = fmt.Errorf("core: %s stage: %w", st.name, err)
			break
		}
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

// stage is one top-level stage: the name its span, StageTime key and
// error wrapping carry, and its body.
type stage struct {
	name string
	run  func(context.Context) error
}

// stages is the ordered stage list of the configured Order. The bodies
// read rep when they run, so a stage sees what the ones before it left.
func (p *Pipeline) stages(d *data.Dataset, rep *Report, root *obs.Span) []stage {
	fuse := stage{"fusion", func(ctx context.Context) error { return p.fuseStage(ctx, rep, root) }}
	if p.cfg.Order == SchemaFirst {
		return []stage{
			// Align with name+instance evidence only (no clusters yet),
			// then link over the normalised dataset.
			{"alignment", func(ctx context.Context) error { return p.alignStage(ctx, d, rep, nil, root) }},
			{"linkage", func(ctx context.Context) error { return p.linkStage(ctx, rep.Normalized, rep, root) }},
			fuse,
		}
	}
	return []stage{
		{"linkage", func(ctx context.Context) error { return p.linkStage(ctx, d, rep, root) }},
		{"alignment", func(ctx context.Context) error { return p.alignStage(ctx, d, rep, rep.Clusters, root) }},
		fuse,
	}
}

// linkStage: blocking → matching → clustering. Candidates stay packed
// as the blocking engine's rank codes all the way through the matcher,
// which decodes only the accepted pairs.
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
		// Identifier blocking always contributes candidates: records
		// sharing an identifier must be compared no matter what. Its
		// blocks follow the purged token blocks in one collection, so a
		// single pass — in memory or spilled — dedups them together.
		token := eng.Blocks(blocking.TokenKey(titleAttr)).Purge(purgeBound)
		idBlocks := eng.Blocks(blocking.AttrExactKey(idAttr))
		if p.cfg.MetaBlock {
			// Meta-blocking reads the token blocks alone; its pruned set is
			// in memory, and the union materialises the identifier pass.
			pruned := blocking.MetaBlocker{Weight: blocking.ECBS, Prune: blocking.WEP}.Pruned(token)
			ids := idBlocks.CandidateSet()
			cs = eng.Union(pruned, ids)
			ids.Close()
		} else {
			cs = eng.Concat(token, idBlocks).CandidateSet()
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
	matcher, err := p.buildMatcher(d, cs, sp)
	if err != nil {
		sp.End()
		return err
	}
	// One path for every candidate set: in memory or spilled, budgeted
	// (ComparisonBudget > 0 stops front-first at the budget) or not. The
	// matcher reads the set's rank codes, so an error reading a spilled
	// set fails matching here, not only the engine's Err.
	rep.Matched, rep.Comparisons, err = linkage.MatchBudgetedCtx(ctx, d, cs, matcher, p.cfg.ComparisonBudget, p.cfg.Workers, reg)
	if err != nil {
		sp.End()
		return fmt.Errorf("matching: %w", err)
	}
	sp.End()

	sp = root.Child("clustering")
	ids := make([]string, len(records))
	for i, r := range records {
		ids[i] = r.ID
	}
	if p.cfg.Clusterer == "swoosh" {
		rep.Clusters, err = p.swooshCluster(ctx, d, ids, rep.Matched, matcher)
		if err != nil {
			sp.End()
			return err
		}
	} else {
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
// rank their pairs at the very front), token blocking on the title,
// q-gram and phonetic blocking tolerating typos and misspellings,
// sorted neighbourhood for near-sorted corruption, and MinHash LSH for
// set similarity without key engineering. Key blockers purge at
// purgeBound like the single-blocker path.
func (p *Pipeline) rankedBlockers() []blocking.RankedBlocker {
	return []blocking.RankedBlocker{
		blocking.Standard{Key: blocking.AttrExactKey(idAttr)},
		blocking.Standard{Key: blocking.TokenKey(titleAttr), MaxBlock: purgeBound},
		blocking.Standard{Key: blocking.QGramKey(titleAttr, 3), MaxBlock: purgeBound},
		blocking.Standard{Key: blocking.PhoneticKey(titleAttr, "soundex"), MaxBlock: purgeBound},
		blocking.SortedNeighborhood{Keys: []blocking.KeyFunc{blocking.AttrExactKey(titleAttr)}, Window: 5},
		blocking.MinHashLSH{Attrs: []string{titleAttr}},
	}
}

// swooshCluster runs R-Swoosh within each connected component of the
// match graph (the candidate groups), so merged evidence can recruit
// records the pairwise matcher missed, without paying O(n²) over the
// whole corpus.
func (p *Pipeline) swooshCluster(ctx context.Context, d *data.Dataset, ids []string,
	matched []data.ScoredPair, matcher linkage.Matcher) (data.Clustering, error) {
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

// buildMatcher is the default rule, or — under Config.FellegiSunter — a
// model trained on the candidates behind the same identifier
// short-circuit.
func (p *Pipeline) buildMatcher(d *data.Dataset, cs *blocking.CandidateSet, sp *obs.Span) (linkage.Matcher, error) {
	attrs := []string{titleAttr}
	if p.cfg.FellegiSunter {
		// A probabilistic matcher needs several comparison fields to
		// separate the classes; widen with the most frequent attributes
		// (the ones many sources kept under their canonical names).
		attrs = append(attrs, topAttrs(d, 5, attrs)...)
	}
	rule := defaultRule(attrs, p.cfg.MatchThreshold)
	rule.Comparator.AttachObs(p.reg())
	if !p.cfg.FellegiSunter {
		return rule, nil
	}
	fs := linkage.NewFellegiSunter(rule.Comparator)
	fs.Threshold = 0.9
	fs.AgreeAt = 0.7
	train := sp.Child("train")
	// The index is built once, over the set's whole ID table: training
	// (over the pairs' IDs) and matching (over the table) both reuse it.
	ids := cs.IDs()
	recs := make([]*data.Record, len(ids))
	for i, id := range ids {
		recs[i] = d.Record(id)
	}
	linkage.PrepareComparatorIndex(fs.Comparator, recs, p.cfg.Workers)
	err := fs.Train(d, cs.Pairs(), 15)
	train.End()
	if err != nil {
		return nil, fmt.Errorf("core: training matcher: %w", err)
	}
	return linkage.IdentifierFirst{Exact: rule.Exact, Matcher: fs}, nil
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
	aligner := schema.Aligner{Evidence: cols.Combined, Threshold: alignThreshold, Ctx: ctx, Workers: p.cfg.Workers}
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
	fuser, err := BuildFuser(ctx, p.cfg.Fuser, p.cfg.Workers, p.reg())
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

// fusers is the one name → fuser table, built for a worker bound, a
// registry and a context: Validate, the ErrUnknownFuser message, the
// commands' -fuser help and the docs read its names through FuserNames.
func fusers(ctx context.Context, workers int, reg *obs.Registry) map[string]fusion.Fuser {
	accu := fusion.ACCU{Workers: workers, Obs: reg, Ctx: ctx}
	return map[string]fusion.Fuser{
		"vote":        fusion.MajorityVote{Workers: workers, Obs: reg, Ctx: ctx},
		"truthfinder": fusion.TruthFinder{Workers: workers, Obs: reg, Ctx: ctx},
		"accu":        accu,
		"popaccu":     fusion.ACCU{Popularity: true, Workers: workers, Obs: reg, Ctx: ctx},
		"accucopy":    fusion.ACCUCOPY{Accu: accu},
		// Sequential: NumericFusion has no worker pool, context or metrics.
		"numeric": fusion.NumericFusion{},
	}
}

// FuserNames lists the names BuildFuser resolves, sorted.
func FuserNames() []string { return sortedKeys(fusers(context.Background(), 0, nil)) }

// BuildFuser resolves a fuser by name ("" = "vote"): workers bounds its
// pool (0 = NumCPU; output is identical for any value), reg receives
// its "fusion." index sizes and EM convergence metrics, ctx cancels its
// parallel passes; nil reg and nil ctx switch those off. Unknown names
// return an error wrapping ErrUnknownFuser.
func BuildFuser(ctx context.Context, name string, workers int, reg *obs.Registry) (fusion.Fuser, error) {
	if name == "" {
		name = "vote"
	}
	f, ok := fusers(ctx, workers, reg)[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (want %s)", ErrUnknownFuser, name, strings.Join(FuserNames(), ", "))
	}
	return f, nil
}

// topAttrs returns the k most frequent attributes in the dataset,
// excluding identifiers, bookkeeping fields and already-chosen attrs.
func topAttrs(d *data.Dataset, k int, exclude []string) []string {
	skip := map[string]bool{"title": true, "pid": true, "epoch": true}
	for _, a := range exclude {
		skip[a] = true
	}
	counts := d.Attributes()
	// Count descending, name ascending for determinism.
	slices.SortFunc(counts, func(a, b data.AttrCount) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Attr, b.Attr))
	})
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
