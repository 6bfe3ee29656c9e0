package experiments

import (
	"testing"

	"ftspm/internal/core"
	"ftspm/internal/workloads"
)

// SetupKey reads a sweep job's workload off its ID, and gives every
// soak job the one key of the source-wide trace and profile they share.
func TestSetupKey(t *testing.T) {
	sw, err := SweepSource(Options{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads.Suite() {
		for _, s := range core.Structures() {
			if got := sw.SetupKey(sweepJobID(w.Name, s)); got != w.Name {
				t.Errorf("sweep SetupKey(%s) = %q, want %q", sweepJobID(w.Name, s), got, w.Name)
			}
		}
	}
	so, err := SoakSource(SoakOptions{Trials: 3}, core.Structures())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range core.Structures() {
		for tr := 0; tr < 3; tr++ {
			if got := so.SetupKey(soakJobID(s, tr)); got != KindSoak {
				t.Errorf("soak SetupKey(%s) = %q, want %q", soakJobID(s, tr), got, KindSoak)
			}
		}
	}
	for _, id := range []string{"bogus", sweepJobID("sha", core.StructFTSPM)} {
		if got := so.SetupKey(id); got != id {
			t.Errorf("soak SetupKey(%q) = %q, want the ID itself", id, got)
		}
	}
}
