package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"ftspm/internal/core"
	"ftspm/internal/faults"
	"ftspm/internal/sim"
	"ftspm/internal/trace"
	"ftspm/internal/workloads"
)

var sweepTestOpts = Options{Scale: 0.05}

// outcomesAgree compares the externally meaningful fields of two
// outcomes: execution accounting, energies, reliability, endurance,
// and the placement itself.
func outcomesAgree(t *testing.T, label string, a, b Outcome) {
	t.Helper()
	if a.Sim.Cycles != b.Sim.Cycles {
		t.Fatalf("%s: cycles %d vs %d", label, a.Sim.Cycles, b.Sim.Cycles)
	}
	if a.Sim.SPMDynamicEnergy != b.Sim.SPMDynamicEnergy ||
		a.Sim.SPMStaticEnergy != b.Sim.SPMStaticEnergy {
		t.Fatalf("%s: energies diverge", label)
	}
	if a.AVF.SDCAVF != b.AVF.SDCAVF || a.AVF.DUEAVF != b.AVF.DUEAVF {
		t.Fatalf("%s: AVF diverges (%v/%v vs %v/%v)", label,
			a.AVF.SDCAVF, a.AVF.DUEAVF, b.AVF.SDCAVF, b.AVF.DUEAVF)
	}
	if a.STTWriteRate != b.STTWriteRate {
		t.Fatalf("%s: STT write rate %v vs %v", label, a.STTWriteRate, b.STTWriteRate)
	}
	if !reflect.DeepEqual(a.Mapping.Placement, b.Mapping.Placement) {
		t.Fatalf("%s: placements diverge", label)
	}
}

// TestSweepSharedProfileMatchesIndependentRuns is the tentpole
// determinism gate: the sweep — which profiles each workload once and
// replays one shared trace — must produce outcomes identical to
// independent EvaluateByNameContext calls that recompute everything per
// run.
func TestSweepSharedProfileMatchesIndependentRuns(t *testing.T) {
	sw, err := runSweep(sweepTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	suite := workloads.Suite()
	structures := core.Structures()
	for wi, w := range suite {
		for si, s := range structures {
			independent, err := EvaluateByNameContext(context.Background(), w.Name, s, sweepTestOpts)
			if err != nil {
				t.Fatal(err)
			}
			outcomesAgree(t, w.Name+"/"+s.String(), sw.Outcomes[wi][si], independent)
		}
	}
}

// TestConcurrentSweepsDoNotInterfere runs two full sweeps in parallel;
// sharing a profile inside one sweep must not leak state across
// sweeps (every generator is seeded, shared slices are read-only).
func TestConcurrentSweepsDoNotInterfere(t *testing.T) {
	var wg sync.WaitGroup
	results := make([]*Sweep, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runSweep(sweepTestOpts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	a, b := results[0], results[1]
	for wi := range a.Outcomes {
		for si := range a.Outcomes[wi] {
			outcomesAgree(t, a.Workloads[wi]+"/"+a.Outcomes[wi][si].Structure.String(),
				a.Outcomes[wi][si], b.Outcomes[wi][si])
		}
	}
}

func TestRunSweepContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sw, status, err := RunSweepOn(ctx, sweepTestOpts, CampaignConfig{}.RunLocal)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sw != nil && status.Completed > 0 {
		t.Fatalf("cancelled sweep completed %d jobs", status.Completed)
	}
}

// TestCachedTraceMatchesGenerator guards the sweep's solo re-run: a
// machine mapped on an already computed profile and run on a fresh
// generator stream must match a whole EvaluateByNameContext.
func TestCachedTraceMatchesGenerator(t *testing.T) {
	w := workloads.CaseStudy()
	a, err := EvaluateByNameContext(context.Background(), w.Name, core.StructFTSPM, sweepTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	v := variant{spec: core.MustSpec(core.StructFTSPM), opts: sweepTestOpts}
	b, err := evaluateSolo(context.Background(), w, v, a.Profile, w.TraceStream(sweepTestOpts.Scale))
	if err != nil {
		t.Fatal(err)
	}
	outcomesAgree(t, "solo-vs-evaluate", a, b)
}

// TestSweepAllocsIndependentOfScale: a sweep streams each trace and
// never holds it, so the bytes it allocates do not grow with the trace
// length. A materialized trace per workload made them grow about
// linearly with scale.
func TestSweepAllocsIndependentOfScale(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-suite sweeps")
	}
	allocated := func(scale float64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := runSweep(Options{Scale: scale}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(0.05), allocated(0.4)
	t.Logf("allocated %.1f MB at scale 0.05, %.1f MB at scale 0.4", float64(small)/1e6, float64(large)/1e6)
	if float64(large) > 1.25*float64(small) {
		t.Fatalf("scale 0.4 allocated %d bytes, more than 1.25x the %d of scale 0.05", large, small)
	}
}

// TestAblationsAllocsIndependentOfScale: the case study and the
// ablation drivers evaluate through streamed groups and hold no trace,
// so going from scale 0.05 to 0.4 must cost each of them less than a
// tenth of the bytes that holding its workload's trace would add. A
// cache of materialized traces made them grow by about that much or
// more. The bound is not a plain ratio because a driver's own results
// may grow with the run: ValidateAVF's regions list every detected word
// they decode, and more strikes land on a longer run. AblationSchedule
// is left out: its Belady plan (schedule.Build) keeps a use list with
// one entry per trace access, so it grows with the trace by design.
// AblationInterleaving and AblationScrubbing run no trace.
func TestAblationsAllocsIndependentOfScale(t *testing.T) {
	if testing.Short() {
		t.Skip("every ablation driver at two scales")
	}
	const small, large = 0.05, 0.4
	drivers := []struct {
		name, workload string
		run            func(Options) error
	}{
		{"case study", "casestudy", func(o Options) error { _, err := RunCaseStudy(o); return err }},
		{"region split", "casestudy", func(o Options) error { _, _, err := AblationRegionSplit(o); return err }},
		{"priorities", "basicmath", func(o Options) error { _, err := AblationPriorities("basicmath", o); return err }},
		{"write threshold", "casestudy", func(o Options) error { _, _, err := AblationWriteThreshold(o); return err }},
		{"retention", "sha", func(o Options) error { _, _, err := AblationRetention("sha", o); return err }},
		{"granularity", "matmul", func(o Options) error { _, _, err := AblationGranularity("matmul", o); return err }},
		{"validation", "casestudy", func(o Options) error { _, _, err := ValidateAVF("casestudy", 0.05, 2013, o); return err }},
		{"tech node", "casestudy", func(o Options) error { _, _, err := AblationTechNode("casestudy", o); return err }},
	}
	for _, d := range drivers {
		w, err := workloads.ByName(d.workload)
		if err != nil {
			t.Fatal(err)
		}
		held := uint64(trace.Summarize(w.TraceStream(large)).Events-trace.Summarize(w.TraceStream(small)).Events) *
			uint64(unsafe.Sizeof(trace.Event{}))
		allocated := func(scale float64) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := d.run(Options{Scale: scale}); err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		a, b := allocated(small), allocated(large)
		t.Logf("%s: allocated %.2f MB at scale %g, %.2f MB at scale %g; holding the trace would add %.2f MB",
			d.name, float64(a)/1e6, small, float64(b)/1e6, large, float64(held)/1e6)
		if b > a+held/10 {
			t.Errorf("%s: scale %g allocated %d bytes, more than the %d of scale %g plus a tenth of the %d a held trace adds",
				d.name, large, b, a, small, held)
		}
	}
}

// TestSweepJobRunTwiceSimulatesTwice runs one sweep job twice from one
// source, as integrity audits and retries do. The first run takes the
// outcome its group set up; the second must simulate again on its own.
// Handing out an outcome clears it from the group, so a second run
// that read it back would return an empty outcome, not these bytes.
func TestSweepJobRunTwiceSimulatesTwice(t *testing.T) {
	src, err := SweepSource(sweepTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	ftspmID := sweepJobID("sha", core.StructFTSPM)
	for _, id := range []string{ftspmID, sweepJobID("sha", core.StructPureSRAM)} {
		jobs, err := src.Jobs([]string{id}, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := SetupCount()
		first, err := jobs[0].Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		second, err := jobs[0].Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: second run differs from the first:\n%s\n%s", id, first, second)
		}
		want := uint64(0) // the group was set up by the first job
		if id == ftspmID {
			want = 1
		}
		if n := SetupCount() - before; n != want {
			t.Fatalf("%s: %d group set-ups, want %d", id, n, want)
		}
	}
}

// TestSweepGroupHandsOutOnce: the first run of each job takes its
// group's outcome, and a second run never reads it back. Every slot the
// group holds is poisoned after the first run, so a job that read the
// group again would return the poison, and one that re-simulated on
// its first run would not.
func TestSweepGroupHandsOutOnce(t *testing.T) {
	w, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	structures := core.Structures()
	const poison = 12345
	sh := &sharedWorkload{}
	first, err := runSweepJob(context.Background(), w, structures, 2, sh, sweepTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sh.outs {
		sh.outs[i].out.Sim.Cycles = poison
	}
	again, err := runSweepJob(context.Background(), w, structures, 2, sh, sweepTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Sim.Cycles == poison {
		t.Fatal("a second run read back the group's outcome")
	}
	outcomesAgree(t, "second run", first, again)
	sibling, err := runSweepJob(context.Background(), w, structures, 0, sh, sweepTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	if sibling.Sim.Cycles != poison {
		t.Fatalf("a sibling's first run did not take its group outcome (cycles %d)", sibling.Sim.Cycles)
	}
}

// TestLockstepMatchesSoloRuns: an evaluation group feeds one trace to
// all its variants' machines in lockstep, and each variant's outcome
// must be exactly the one of mapping it alone on the group's profile
// and running it alone on a fresh stream. The groups cover every shape
// the drivers evaluate: all four structures (DMR included), machines
// carrying live injection (ValidateAVF), variants that differ only in
// MDA priority or thresholds (the MDA ablations), and a refined program
// (AblationGranularity).
func TestLockstepMatchesSoloRuns(t *testing.T) {
	ftspm := core.MustSpec(core.StructFTSPM)
	structures := func(ss ...core.Structure) []variant {
		vs := make([]variant, len(ss))
		for i, s := range ss {
			vs[i] = variant{spec: core.MustSpec(s), opts: sweepTestOpts}
		}
		return vs
	}
	injected := structures(core.Structures()...)
	for i := range injected {
		injected[i].injection = &sim.InjectionConfig{StrikesPerAccess: 0.05, Dist: faults.Dist40nm, Seed: 2013}
	}
	var priorities []variant
	for _, p := range []core.Priority{core.PriorityReliability, core.PriorityPerformance,
		core.PriorityPower, core.PriorityEndurance} {
		o := sweepTestOpts.normalize()
		o.Priority = p
		priorities = append(priorities, variant{spec: ftspm, opts: o})
	}
	relaxed := sweepTestOpts.normalize()
	relaxed.Thresholds.WriteFraction = 0.6
	relaxed.Thresholds.PerfOverhead = 1000
	relaxed.Thresholds.EnergyOverhead = 1000
	thresholds := []variant{{spec: ftspm, opts: sweepTestOpts}, {spec: ftspm, opts: relaxed}}
	cases := []struct {
		name, workload string
		refine         bool
		variants       []variant
	}{
		{"structures", "casestudy", false, structures(core.AllStructures()...)},
		{"structures", "qsort", false, structures(core.AllStructures()...)},
		{"structures", "jpeg", false, structures(core.AllStructures()...)},
		{"injection", "casestudy", false, injected},
		{"priorities", "basicmath", false, priorities},
		{"thresholds", "casestudy", false, thresholds},
		{"refined", "matmul", true, []variant{{spec: ftspm, opts: sweepTestOpts}}},
	}
	for _, c := range cases {
		label := c.name + "/" + c.workload
		w, err := workloads.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		prog := w.Program()
		if c.refine {
			if prog, err = refineOversized(prog, ftspm); err != nil {
				t.Fatal(err)
			}
			if prog.NumBlocks() == w.Program().NumBlocks() {
				t.Fatalf("%s: refinement split no block", label)
			}
		}
		prof, outs, errs, err := evaluateGroup(w, prog, sweepTestOpts.Scale, c.variants)
		if err != nil {
			t.Fatal(err)
		}
		if prof.Program() != prog {
			t.Fatalf("%s: the group profiled another program", label)
		}
		for i, v := range c.variants {
			if errs[i] != nil {
				t.Fatalf("%s #%d: %v", label, i, errs[i])
			}
			solo, err := evaluateSolo(context.Background(), w, v, prof, w.TraceStream(sweepTestOpts.Scale))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(outs[i], solo) {
				t.Fatalf("%s #%d: lockstep outcome differs from a solo run:\n%+v\n%+v", label, i, outs[i].Sim, solo.Sim)
			}
			if (v.injection != nil) != (solo.Sim.InjectedStrikes > 0) {
				t.Fatalf("%s #%d: %d strikes landed", label, i, solo.Sim.InjectedStrikes)
			}
		}
	}
}

// TestEnduranceGrowsWithScale pins the scale law of the reproduction's
// endurance headline: a longer trace gives the STT-RAM of pure STT more
// time to wear relative to FTSPM's, so the Fig. 8 geo-mean ratio rises
// strictly with scale (EXPERIMENTS.md, deviations).
func TestEnduranceGrowsWithScale(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-suite sweeps")
	}
	prev := 0.0
	for _, scale := range []float64{0.25, 0.5, 1} {
		sw, err := runSweep(Options{Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := Summarize(sw)
		if err != nil {
			t.Fatal(err)
		}
		got := sum.Headlines.EnduranceImprovement
		t.Logf("scale %g: endurance improvement %.1fx", scale, got)
		if !(got > prev) {
			t.Fatalf("scale %g: endurance improvement %v, not above %v at the previous scale", scale, got, prev)
		}
		prev = got
	}
}
