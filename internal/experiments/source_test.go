package experiments

import (
	"testing"

	"ftspm/internal/core"
	"ftspm/internal/workloads"
)

// SetupKey reads each job's key off the source's job table: a sweep
// job's is its workload, every soak job shares the one key of the
// source-wide trace and profile, and an ID the source does not hold is
// its own key.
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
	for _, tc := range []struct {
		src *JobSource
		id  string
	}{
		{so, "bogus"},
		{so, sweepJobID("sha", core.StructFTSPM)},
		{so, soakJobID(core.StructFTSPM, 3)},
		{sw, soakJobID(core.StructFTSPM, 0)},
		{sw, "sweep/sha"},
	} {
		if got := tc.src.SetupKey(tc.id); got != tc.id {
			t.Errorf("%s SetupKey(%q) = %q, want the ID itself", tc.src.Spec.Kind, tc.id, got)
		}
	}
}

// A source's spec rebuilds the same source, and a spec that names an
// unknown kind, lacks its kind's options or names an unknown structure
// is an error.
func TestCampaignSpecSource(t *testing.T) {
	sw, err := SweepSource(Options{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	so, err := SoakSource(SoakOptions{Trials: 2}, []core.Structure{core.StructPureSTT, core.StructFTSPM})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []*JobSource{sw, so} {
		got, err := src.Spec.Source()
		if err != nil {
			t.Fatalf("%s spec: %v", src.Spec.Kind, err)
		}
		if got.Hash != src.Hash || len(got.IDs) != len(src.IDs) || got.IDs[0] != src.IDs[0] {
			t.Errorf("%s spec rebuilt hash %s with %d jobs, want %s with %d",
				src.Spec.Kind, got.Hash, len(got.IDs), src.Hash, len(src.IDs))
		}
	}
	soak := SoakOptions{Trials: 2}
	for _, tc := range []struct {
		name string
		spec CampaignSpec
	}{
		{"unknown kind", CampaignSpec{Kind: "ablation", Sweep: &Options{}}},
		{"no kind", CampaignSpec{Sweep: &Options{}}},
		{"sweep without options", CampaignSpec{Kind: KindSweep, Soak: &soak}},
		{"soak without options", CampaignSpec{Kind: KindSoak, Structures: []string{"FTSPM"}}},
		{"unknown structure", CampaignSpec{Kind: KindSoak, Soak: &soak, Structures: []string{"FTSPM", "quantum"}}},
	} {
		if src, err := tc.spec.Source(); err == nil {
			t.Errorf("%s: built a %s source, want an error", tc.name, src.Spec.Kind)
		}
	}
}
