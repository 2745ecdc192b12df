package experiments

import "testing"

func TestE19Deception(t *testing.T) {
	_, res := run[*E19Result](t, "E19")
	clean := res.Accuracy[0]
	heavy := res.Accuracy[res.Liars[len(res.Liars)-1]]
	// With no liars everything works.
	for name, acc := range clean {
		if acc < 0.9 {
			t.Errorf("clean regime: %s accuracy = %f", name, acc)
		}
	}
	// Voting collapses under a majority campaign.
	if heavy["vote"] > 0.5 {
		t.Errorf("vote under majority deception = %f, expected collapse", heavy["vote"])
	}
	// Accuracy-aware fusion without copy detection collapses at least
	// as hard (the corrupted-consensus amplification).
	if heavy["accu"] > heavy["vote"]+0.05 {
		t.Errorf("plain accu (%f) should not resist what vote (%f) cannot", heavy["accu"], heavy["vote"])
	}
	// Copy-aware fusion holds.
	if heavy["accucopy"] < 0.9 {
		t.Errorf("accucopy under deception = %f, want >= 0.9", heavy["accucopy"])
	}
	// Middle regime (minority campaign): accu beats vote by inverting
	// the liars' testimony.
	mid := res.Accuracy[4]
	if mid["accu"] <= mid["vote"] {
		t.Errorf("minority campaign: accu (%f) must beat vote (%f)", mid["accu"], mid["vote"])
	}
}
