package schema

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/parallel"
)

// MediatedAttr is one attribute of the mediated (global) schema: a
// cluster of corresponding source attributes with a membership
// probability per member — the probabilistic mediated schema of the
// dataspace line of work the tutorial surveys.
type MediatedAttr struct {
	// Name is the cluster's display name: the most common member
	// attribute name.
	Name string
	// Members maps source attributes to membership probability (0,1].
	Members map[SourceAttr]float64
}

// MediatedSchema is the full set of mediated attributes plus the
// mapping from every source attribute to its cluster.
type MediatedSchema struct {
	Attrs []*MediatedAttr
	// Of maps each source attribute to the index in Attrs.
	Of map[SourceAttr]int
}

// Mapping returns the probabilistic mapping for one source: local
// attribute name → (mediated attribute name, probability).
func (ms *MediatedSchema) Mapping(source string) map[string]AttrMapping {
	out := map[string]AttrMapping{}
	for sa, idx := range ms.Of {
		if sa.Source != source {
			continue
		}
		ma := ms.Attrs[idx]
		out[sa.Attr] = AttrMapping{Mediated: ma.Name, P: ma.Members[sa]}
	}
	return out
}

// AttrMapping is one probabilistic source→mediated correspondence.
type AttrMapping struct {
	Mediated string
	P        float64
}

// Aligner clusters source-attribute profiles into a mediated schema by
// greedy agglomerative clustering under a match-evidence function.
type Aligner struct {
	// Evidence scores profile pairs; default Combined. It is evaluated
	// once per unordered profile pair, from Workers goroutines.
	Evidence MatchEvidence
	// Threshold: minimum evidence to merge two clusters (average
	// linkage). Default 0.5.
	Threshold float64
	// Ctx cancels the alignment between matrix rows and agglomeration
	// rounds; nil never cancels.
	Ctx context.Context
	// Workers bounds the goroutines filling the evidence matrix
	// (0 = NumCPU). The schema is identical for any worker count.
	Workers int
}

// Align builds the mediated schema from profiles.
func (al Aligner) Align(profiles []*Profile) (*MediatedSchema, error) {
	if err := validateProfiles(profiles); err != nil {
		return nil, err
	}
	ctx := al.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	evidence := al.Evidence
	if evidence == nil {
		evidence = Combined
	}
	threshold := al.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}

	sim, err := evidenceMatrix(ctx, profiles, evidence, al.Workers)
	if err != nil {
		return nil, err
	}
	ag := newAgglomeration(profiles, sim)
	if err := ag.run(ctx, threshold); err != nil {
		return nil, err
	}

	n := len(profiles)
	type keyed struct {
		ma    *MediatedAttr
		first string // firstMember(ma).String(), the order's tie-break
	}
	var attrs []keyed
	for _, ci := range ag.active {
		members := ag.clusters[ci]
		ma := &MediatedAttr{Members: map[SourceAttr]float64{}}
		// Membership probability: each member's mean evidence toward the
		// rest of the cluster (1 for singletons).
		for _, i := range members {
			p := 1.0
			if len(members) > 1 {
				var sum float64
				for _, j := range members {
					if i != j {
						sum += sim[i*n+j]
					}
				}
				p = sum / float64(len(members)-1)
				if p > 1 {
					p = 1
				}
				if p <= 0 {
					p = 0.01
				}
			}
			ma.Members[profiles[i].SourceAttr] = p
		}
		ma.Name = clusterName(profiles, members)
		attrs = append(attrs, keyed{ma, firstMember(ma).String()})
	}
	// Deterministic attr order: by name then first member.
	sort.Slice(attrs, func(i, j int) bool {
		if attrs[i].ma.Name != attrs[j].ma.Name {
			return attrs[i].ma.Name < attrs[j].ma.Name
		}
		return attrs[i].first < attrs[j].first
	})
	ms := &MediatedSchema{Of: map[SourceAttr]int{}}
	for idx, k := range attrs {
		ms.Attrs = append(ms.Attrs, k.ma)
		for sa := range k.ma.Members {
			ms.Of[sa] = idx
		}
	}
	return ms, nil
}

// evidenceMatrix evaluates evidence once per unordered profile pair into
// a symmetric row-major n×n matrix. Rows are independent, so they are
// filled in parallel; a row is the cancellation granularity.
func evidenceMatrix(ctx context.Context, profiles []*Profile, evidence MatchEvidence, workers int) ([]float64, error) {
	n := len(profiles)
	sim := make([]float64, n*n)
	err := parallel.ForEach(parallel.Config{Workers: workers, Ctx: ctx}, n, func(i int) {
		if ctx.Err() != nil {
			return
		}
		for j := i + 1; j < n; j++ {
			s := evidence(profiles[i], profiles[j])
			sim[i*n+j], sim[j*n+i] = s, s
		}
	})
	if err == nil {
		// Rows skipped above leave ForEach nothing to report.
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return sim, nil
}

// agglomeration is greedy average-linkage clustering over an evidence
// matrix with a cached linkage matrix: link holds avgLink for every live
// cluster pair, a round reads it to find the pair to merge, and only the
// merged cluster's row is recomputed. Each entry is always the value of
// one whole avgLink call over the current member lists, in the same
// summation order a full rescan would use, so every comparison a round
// makes is bit for bit the one the rescan makes.
type agglomeration struct {
	n        int
	sim      []float64 // n×n evidence
	source   []uint32  // dense source index per profile
	clusters [][]int   // member profile indexes per cluster slot
	active   []int     // live cluster slots, ascending
	link     []float64 // n×n; link[i*n+j] = avgLink(i, j) for live i < j
	evals    int       // avgLink evaluations so far
}

func newAgglomeration(profiles []*Profile, sim []float64) *agglomeration {
	n := len(profiles)
	ag := &agglomeration{
		n:        n,
		sim:      sim,
		source:   make([]uint32, n),
		clusters: make([][]int, n),
		active:   make([]int, n),
		link:     make([]float64, n*n),
	}
	sources := map[string]uint32{}
	for i, p := range profiles {
		id, ok := sources[p.Source]
		if !ok {
			id = uint32(len(sources))
			sources[p.Source] = id
		}
		ag.source[i] = id
		ag.clusters[i] = []int{i}
		ag.active[i] = i
	}
	return ag
}

// avgLink is the mean evidence between the members of clusters a and b,
// -1 when they hold attributes of one source (which must not merge).
func (ag *agglomeration) avgLink(a, b int) float64 {
	ag.evals++
	var sum float64
	cnt := 0
	for _, i := range ag.clusters[a] {
		row := ag.sim[i*ag.n : (i+1)*ag.n]
		for _, j := range ag.clusters[b] {
			if ag.source[i] == ag.source[j] {
				return -1
			}
			sum += row[j]
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// run merges until no live pair reaches threshold. Among maximal pairs
// the last in (i, j) scan order wins, as `>=` decides.
func (ag *agglomeration) run(ctx context.Context, threshold float64) error {
	n := ag.n
	for ai, i := range ag.active {
		for _, j := range ag.active[ai+1:] {
			ag.link[i*n+j] = ag.avgLink(i, j)
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		bestI, bestJ, bestS := -1, -1, threshold
		for ai, i := range ag.active {
			row := ag.link[i*n : (i+1)*n]
			for _, j := range ag.active[ai+1:] {
				if s := row[j]; s >= bestS {
					bestI, bestJ, bestS = i, j, s
				}
			}
		}
		if bestI < 0 {
			return nil
		}
		ag.clusters[bestI] = append(ag.clusters[bestI], ag.clusters[bestJ]...)
		at := sort.SearchInts(ag.active, bestJ)
		ag.active = append(ag.active[:at], ag.active[at+1:]...)
		for _, k := range ag.active {
			switch {
			case k < bestI:
				ag.link[k*n+bestI] = ag.avgLink(k, bestI)
			case k > bestI:
				ag.link[bestI*n+k] = ag.avgLink(bestI, k)
			}
		}
	}
}

// firstMember returns the member whose "source/attr" rendering sorts
// first.
func firstMember(ma *MediatedAttr) SourceAttr {
	var first SourceAttr
	var key string
	for sa := range ma.Members {
		if k := sa.String(); key == "" || k < key {
			first, key = sa, k
		}
	}
	return first
}

// clusterName picks the most frequent attribute name among members,
// ties broken lexicographically.
func clusterName(profiles []*Profile, members []int) string {
	freq := map[string]int{}
	for _, i := range members {
		freq[profiles[i].Attr]++
	}
	names := make([]string, 0, len(freq))
	for nm := range freq {
		names = append(names, nm)
	}
	sort.Slice(names, func(i, j int) bool {
		if freq[names[i]] != freq[names[j]] {
			return freq[names[i]] > freq[names[j]]
		}
		return names[i] < names[j]
	})
	return names[0]
}

// String renders the mediated schema for inspection.
func (ms *MediatedSchema) String() string {
	var b strings.Builder
	for i, ma := range ms.Attrs {
		fmt.Fprintf(&b, "[%d] %s:", i, ma.Name)
		var keys []string
		for sa := range ma.Members {
			keys = append(keys, sa.String())
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s", k)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
