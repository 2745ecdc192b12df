package experiments

import "testing"

func TestE15OnlineFusion(t *testing.T) {
	_, res := run[*E15Result](t, "E15")
	// The anytime curve improves from its first point to its best.
	first := res.Accuracy[0]
	best := first
	for _, a := range res.Accuracy {
		if a > best {
			best = a
		}
	}
	if best <= first {
		t.Errorf("anytime curve flat: first %f best %f", first, best)
	}
	// The early-termination protocol saves probes at near-best accuracy.
	if res.MeanProbes >= float64(res.NumSources)*0.9 {
		t.Errorf("mean probes %.1f of %d: no early termination", res.MeanProbes, res.NumSources)
	}
	full := res.Accuracy[len(res.Accuracy)-1]
	if res.OnlineAcc < full-0.03 {
		t.Errorf("online accuracy %f must track full-prefix accuracy %f", res.OnlineAcc, full)
	}
}

func TestE16PayAsYouGo(t *testing.T) {
	_, res := run[*E16Result](t, "E16")
	// More questions never hurt, and the largest budget beats the
	// baseline.
	last := res.F1[len(res.F1)-1]
	if last < res.BaseF1 {
		t.Errorf("60 questions (%f) must beat baseline (%f)", last, res.BaseF1)
	}
	for i := 1; i < len(res.F1); i++ {
		if res.F1[i] < res.F1[i-1]-0.03 {
			t.Errorf("F1 dropped with budget: %v", res.F1)
		}
	}
}

func TestE17Ablations(t *testing.T) {
	_, res := run[*E17Result](t, "E17")
	if res.AlignFull < res.AlignNoRatio-0.02 {
		t.Errorf("ratio stability should help on unit-shifted webs: %f vs %f",
			res.AlignFull, res.AlignNoRatio)
	}
	if res.FuseBootstrap <= res.FuseNoBootstrap {
		t.Errorf("bootstrap should matter under collusion: %f vs %f",
			res.FuseBootstrap, res.FuseNoBootstrap)
	}
}

func TestE18LSHBlocking(t *testing.T) {
	_, res := run[*E18Result](t, "E18")
	// Lower LSH threshold (more bands, fewer rows) must not lose PC.
	if res.Quality["minhash(16x2)"].PairCompleteness < res.Quality["minhash(8x4)"].PairCompleteness {
		t.Error("lower LSH threshold must raise (or keep) pair completeness")
	}
	// At its loosest setting, LSH must reach high pair completeness
	// while still reducing far more than token blocking.
	lsh := res.Quality["minhash(16x2)"]
	tok := res.Quality["token(title)"]
	if lsh.PairCompleteness < 0.75 {
		t.Errorf("LSH PC = %f", lsh.PairCompleteness)
	}
	if lsh.ReductionRatio < tok.ReductionRatio {
		t.Errorf("LSH RR %f should beat token blocking %f", lsh.ReductionRatio, tok.ReductionRatio)
	}
}
