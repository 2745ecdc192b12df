package experiments

import "testing"

func TestE23IngestionUnderFaults(t *testing.T) {
	_, res := run[*E23Result](t, "E23")
	// The fault-free baseline keeps the whole fleet and integrates well.
	if res.Survived[0] != res.Total {
		t.Errorf("fault-free run dropped sources: %d/%d", res.Survived[0], res.Total)
	}
	if res.LinkF1[0] < 0.8 {
		t.Errorf("fault-free linkage F1 = %f, want >= 0.8", res.LinkF1[0])
	}
	// Faulted runs still complete (E23 itself errors otherwise) and the
	// heaviest rate actually exercises the degradation path.
	heaviest := res.Rates[len(res.Rates)-1]
	if res.Survived[heaviest] == res.Total {
		t.Errorf("rate %.2f dropped nothing; the chaos sweep is a no-op", heaviest)
	}
	for _, rate := range res.Rates {
		if res.Survived[rate]+len(res.Dropped[rate]) != res.Total {
			t.Errorf("rate %.2f does not balance: %d ok + %d dropped != %d",
				rate, res.Survived[rate], len(res.Dropped[rate]), res.Total)
		}
		// Linkage over whatever survived stays useful.
		if res.Survived[rate] > 0 && res.LinkF1[rate] < 0.6 {
			t.Errorf("rate %.2f linkage F1 = %f over surviving data", rate, res.LinkF1[rate])
		}
		// Retries show up as extra attempts once faults are on.
		if rate > 0 && res.Attempts[rate] <= res.Total && res.Survived[rate] < res.Total {
			t.Errorf("rate %.2f: %d attempts for %d sources — retry loop never engaged",
				rate, res.Attempts[rate], res.Total)
		}
	}
}
