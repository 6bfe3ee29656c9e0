package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
	"unicode/utf8"

	"ftspm/internal/core"
	"ftspm/internal/resultcache"
	"ftspm/internal/spm"
)

func newTestCache(t *testing.T) *resultcache.Cache {
	t.Helper()
	c, err := resultcache.Open(resultcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The PR's equivalence invariant for sweeps: an uncached run, a
// cold-cache run, and a warm-cache run of the same campaign marshal to
// byte-identical artifacts, and the warm run is all hits.
func TestSweepCacheEquivalence(t *testing.T) {
	opts := Options{Scale: 0.02}
	ctx := context.Background()

	plain, status, err := RunSweepCampaign(ctx, opts, CampaignConfig{})
	if err != nil || status.Failed != 0 {
		t.Fatalf("uncached sweep: %v (status %+v)", err, status)
	}
	want, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}

	c := newTestCache(t)
	cold, _, err := RunSweepCampaign(ctx, opts, CampaignConfig{Cache: c})
	if err != nil {
		t.Fatalf("cold cached sweep: %v", err)
	}
	coldB, _ := json.Marshal(cold)
	if !bytes.Equal(want, coldB) {
		t.Fatal("cold cached sweep diverges from uncached sweep")
	}
	s := c.Stats()
	if s.Hits != 0 || s.Misses == 0 {
		t.Fatalf("cold stats = %+v, want all misses", s)
	}

	warm, _, err := RunSweepCampaign(ctx, opts, CampaignConfig{Cache: c})
	if err != nil {
		t.Fatalf("warm cached sweep: %v", err)
	}
	warmB, _ := json.Marshal(warm)
	if !bytes.Equal(want, warmB) {
		t.Fatal("warm cached sweep diverges from uncached sweep")
	}
	jobs := len(core.Structures()) * len(plain.Workloads)
	if s2 := c.Stats(); s2.Hits != uint64(jobs) {
		t.Fatalf("warm stats = %+v, want %d hits", s2, jobs)
	}

	// Single evaluations share the sweep's key space: an evaluate of
	// any pair the sweep covered is a hit with re-marshaled bytes equal
	// to the sweep's cell.
	name := plain.Workloads[0]
	st := core.Structures()[0]
	out, hit, err := EvaluateCachedContext(ctx, c, name, st, opts)
	if err != nil || !hit {
		t.Fatalf("evaluate after sweep: hit=%v err=%v", hit, err)
	}
	cell, err := plain.Get(name, st)
	if err != nil {
		t.Fatal(err)
	}
	ob, _ := json.Marshal(out)
	cb, _ := json.Marshal(cell)
	if !bytes.Equal(ob, cb) {
		t.Fatal("cached evaluate diverges from the sweep cell")
	}
}

// Same invariant for soaks, plus the bypass rule: a campaign whose
// fault/wear/recovery model differs from the cached one records
// bypasses and recomputes — never a false hit.
func TestSoakCacheEquivalenceAndBypass(t *testing.T) {
	rec := spm.DefaultRecovery()
	opts := SoakOptions{
		Workload: "sha", Trials: 4, Scale: 0.02,
		StrikesPerAccess: 0.01, Seed: 7, Recovery: &rec,
	}
	structures := []core.Structure{core.StructFTSPM}
	ctx := context.Background()

	plain, status, err := RunSoakCampaign(ctx, opts, structures, CampaignConfig{})
	if err != nil || status.Failed != 0 {
		t.Fatalf("uncached soak: %v (status %+v)", err, status)
	}
	want, _ := json.Marshal(plain)

	c := newTestCache(t)
	for _, cfg := range []CampaignConfig{{Cache: c}, {Cache: c}} {
		got, _, err := RunSoakCampaign(ctx, opts, structures, cfg)
		if err != nil {
			t.Fatalf("cached soak: %v", err)
		}
		gotB, _ := json.Marshal(got)
		if !bytes.Equal(want, gotB) {
			t.Fatal("cached soak diverges from uncached soak")
		}
	}
	s := c.Stats()
	if s.Hits != uint64(opts.Trials) || s.Misses != uint64(opts.Trials) {
		t.Fatalf("stats = %+v, want %d hits and %d misses", s, opts.Trials, opts.Trials)
	}

	// Different strike rate: same problem, different fault model.
	hotter := opts
	hotter.StrikesPerAccess = 0.02
	if _, _, err := RunSoakCampaign(ctx, hotter, structures, CampaignConfig{Cache: c}); err != nil {
		t.Fatalf("bypass soak: %v", err)
	}
	s = c.Stats()
	if s.Bypasses != uint64(opts.Trials) {
		t.Fatalf("stats = %+v, want %d bypasses", s, opts.Trials)
	}
	if s.Hits != uint64(opts.Trials) {
		t.Fatalf("stats = %+v: a fault-model change must never hit", s)
	}

	// Different recovery policy: also a bypass, even at equal rates.
	rb := rec
	rb.MaxRefetchRetries++
	differentRecovery := opts
	differentRecovery.Recovery = &rb
	if _, _, err := RunSoakCampaign(ctx, differentRecovery, structures, CampaignConfig{Cache: c}); err != nil {
		t.Fatalf("recovery-bypass soak: %v", err)
	}
	if s2 := c.Stats(); s2.Bypasses != s.Bypasses+uint64(opts.Trials) {
		t.Fatalf("stats = %+v, want %d more bypasses", s2, opts.Trials)
	}

	// A larger campaign with the same models reuses the smaller one's
	// trials: trial identity excludes the trial count.
	bigger := opts
	bigger.Trials = 6
	if _, _, err := RunSoakCampaign(ctx, bigger, structures, CampaignConfig{Cache: c}); err != nil {
		t.Fatalf("bigger soak: %v", err)
	}
	if s2 := c.Stats(); s2.Hits < uint64(opts.Trials)+uint64(opts.Trials) {
		t.Fatalf("stats = %+v: trial-count change lost the shared trials", s2)
	}
}

// CachedResult synthesizes exactly the record a fresh first-attempt
// run journals, so a fabric pre-merge hit is indistinguishable from a
// locally-run job.
func TestCachedResultMatchesFreshRun(t *testing.T) {
	opts := Options{Scale: 0.02}
	c := newTestCache(t)
	ctx := context.Background()
	if _, _, err := RunSweepCampaign(ctx, opts, CampaignConfig{Cache: c}); err != nil {
		t.Fatal(err)
	}
	src, err := SweepSource(opts)
	if err != nil {
		t.Fatal(err)
	}
	id := src.IDs[0]
	res, ok, err := src.CachedResult(c, id)
	if err != nil || !ok {
		t.Fatalf("no cached result for %s after a cached sweep (%v)", id, err)
	}
	jobs, err := src.Jobs([]string{id}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := jobs[0].Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Value, fresh) {
		t.Fatal("cached result bytes diverge from a fresh run")
	}
	if res.ID != id || res.Attempts != 1 {
		t.Fatalf("synthesized record %+v, want first-attempt shape", res)
	}
}

// A miss, the first (decoding) hit and a memoized hit of one key all
// return Outcomes that re-marshal to exactly the cached bytes, so
// responses built from any of them are byte-identical. The memoized
// hit shares the decoding hit's value.
func TestEvaluateCachedMissAndHitsMatchCachedBytes(t *testing.T) {
	opts := Options{Scale: 0.02}
	ctx := context.Background()
	c := newTestCache(t)
	k, err := evaluateCacheKey("sha", core.StructFTSPM, opts.normalize())
	if err != nil {
		t.Fatal(err)
	}
	var outs [3]Outcome
	for i, wantHit := range []bool{false, true, true} {
		out, hit, err := EvaluateCachedContext(ctx, c, "sha", core.StructFTSPM, opts)
		if err != nil || hit != wantHit {
			t.Fatalf("call %d: hit=%v err=%v, want hit=%v", i, hit, err, wantHit)
		}
		if out.Profile != nil {
			t.Fatalf("call %d returned a Profile", i)
		}
		outs[i] = out
	}
	cached, ok := c.Get(k)
	if !ok {
		t.Fatal("evaluate result not cached")
	}
	for i, out := range outs {
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, cached) {
			t.Fatalf("call %d re-marshals to bytes that differ from the cached entry", i)
		}
	}
	if len(outs[1].Mapping.Decisions) == 0 || &outs[1].Mapping.Decisions[0] != &outs[2].Mapping.Decisions[0] {
		t.Fatal("memoized hit did not share the decoding hit's value")
	}
	// Two evaluate hits plus the Get above. The memo is charged at
	// its Outcome (len(cached)) plus its two fragments.
	sv, _, err := serve("sha", core.StructFTSPM, cached)
	if err != nil {
		t.Fatal(err)
	}
	memo := int64(len(cached) + len(sv.Evaluate) + len(sv.Entry))
	if s := c.Stats(); s.Hits != 3 || s.Misses != 1 || s.Bytes != int64(len(cached))+memo {
		t.Fatalf("stats = %+v, want hits=3 misses=1 and one memo charge of %d", s, memo)
	}
}

// Two concurrent first calls (a miss, and a collapsed waiter or a
// hit), the first memoizing hit and a memoized hit of one key return
// equal served fragments; the memoized hit shares the memoizing hit's
// value.
func TestEvaluateServedFragmentsMatch(t *testing.T) {
	opts := Options{Scale: 0.02}
	ctx := context.Background()
	c := newTestCache(t)
	var got [4]*Served
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			sv, _, err := EvaluateServed(ctx, c, "sha", core.StructFTSPM, opts)
			got[i] = sv
			errs <- err
		}(i)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i < 4; i++ {
		sv, hit, err := EvaluateServed(ctx, c, "sha", core.StructFTSPM, opts)
		if err != nil || !hit {
			t.Fatalf("call %d: hit=%v err=%v", i, hit, err)
		}
		got[i] = sv
	}
	if got[2] != got[3] {
		t.Fatal("memoized hit did not share the memoizing hit's value")
	}
	for i, sv := range got[1:] {
		if !bytes.Equal(sv.Evaluate, got[0].Evaluate) || !bytes.Equal(sv.Entry, got[0].Entry) {
			t.Fatalf("call %d: fragments differ from the first call's", i+1)
		}
	}
	var entry MapEntry
	if err := json.Unmarshal(got[0].Entry, &entry); err != nil || entry.Workload != "sha" || entry.Run.Cycles == 0 {
		t.Fatalf("entry fragment decodes to %+v, %v", entry, err)
	}
}

// resultcacheEvaluateKey is evaluateCacheKey as resultcache.NewKey
// derives it: the canonicalizing round trip over the base struct and
// the fault marker. Keys stored in caches, disk segments and sweep
// journals were derived this way, so the one-marshal key must match it.
func resultcacheEvaluateKey(workload string, s core.Structure, opts Options) (resultcache.Key, error) {
	base := struct {
		Workload  string          `json:"workload"`
		Structure string          `json:"structure"`
		Scale     float64         `json:"scale"`
		Budgets   core.Thresholds `json:"budgets"`
		Priority  core.Priority   `json:"priority"`
	}{workload, s.String(), opts.Scale, opts.Thresholds, opts.Priority}
	return resultcache.NewKey(cacheKindEvaluate, base, evaluateFault{Model: "analytic-avf"})
}

// For any valid-UTF-8 workload string, any structure, any finite scale
// and thresholds and any priority, the one-marshal evaluate key equals
// the resultcache.NewKey form. Invalid UTF-8 is out of scope: HTTP
// bodies cannot carry it (the JSON decoder replaces it), and
// CanonicalJSON's round trip rewrites its escapes.
func FuzzEvaluateKeyCanonical(f *testing.F) {
	d := DefaultOptions().Thresholds
	f.Add("sha", int(core.StructFTSPM), 0.25, d.PerfOverhead, d.EnergyOverhead, d.WriteFraction, d.CellWriteFraction, int(core.PriorityReliability))
	f.Add("<a&b> \"\\", 0, 1e-7, -0.0, 1e21, 5e-324, 1.7976931348623157e308, -1)
	f.Add("", 99, 123456789.125, 0.1, 0.2, 0.3, 0.4, 1<<62+1)
	f.Fuzz(func(t *testing.T, workload string, structure int, scale, perf, energy, write, cell float64, priority int) {
		if !utf8.ValidString(workload) {
			t.Skip("invalid UTF-8")
		}
		for _, v := range []float64{scale, perf, energy, write, cell} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite")
			}
		}
		opts := Options{
			Scale: scale,
			Thresholds: core.Thresholds{
				PerfOverhead:      perf,
				EnergyOverhead:    energy,
				WriteFraction:     write,
				CellWriteFraction: cell,
			},
			Priority: core.Priority(priority),
		}
		got, err := evaluateCacheKey(workload, core.Structure(structure), opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := resultcacheEvaluateKey(workload, core.Structure(structure), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("key %v, resultcache.NewKey form %v", got, want)
		}
	})
}

// sortedThresholds must hold exactly core.Thresholds' fields, in sorted
// name order and with the same types: a field added to core.Thresholds
// alone would drop out of every evaluate key.
func TestSortedThresholdsMatchCore(t *testing.T) {
	fields := func(typ reflect.Type) []string {
		var out []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			out = append(out, f.Name+" "+f.Type.String()+" "+string(f.Tag))
		}
		return out
	}
	want := fields(reflect.TypeOf(core.Thresholds{}))
	sort.Strings(want)
	if got := fields(reflect.TypeOf(sortedThresholds{})); !reflect.DeepEqual(got, want) {
		t.Fatalf("sortedThresholds fields %q, want core.Thresholds' fields in sorted order %q", got, want)
	}
}
