// Package sim is the reproduction's substitute for FaCSim [25]: a
// trace-driven, cycle-accounting simulator of the evaluated platform —
// an in-order embedded core front end with split L1 caches, split
// instruction/data SPMs with an on-line mapping controller, and off-chip
// memory. FTSPM's results depend on the memory-access stream and the
// per-access latency/energy of each structure, which this model charges
// exactly; the ARM pipeline itself is orthogonal (DESIGN.md §2).
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"ftspm/internal/cache"
	"ftspm/internal/dram"
	"ftspm/internal/faults"
	"ftspm/internal/memtech"
	"ftspm/internal/program"
	"ftspm/internal/schedule"
	"ftspm/internal/spm"
	"ftspm/internal/trace"
)

// Config assembles a machine.
type Config struct {
	// ISPM and DSPM size the two scratchpads (Table IV rows).
	ISPM, DSPM []spm.RegionConfig
	// ExtraLeakage is structure-level controller leakage added to the
	// data SPM (memtech.HybridControllerLeakage for FTSPM, 0 for the
	// single-region baselines).
	ExtraLeakage memtech.Milliwatts
	// Placement assigns mapped blocks (code and data) to region kinds.
	Placement spm.Placement
	// ICache and DCache configure the L1s behind unmapped blocks.
	ICache, DCache cache.Config
	// DRAM configures the off-chip memory.
	DRAM dram.Config
	// Injection, when non-nil, lands particle strikes on the selected
	// SPM(s) during execution (live fault-injection campaigns).
	Injection *InjectionConfig
	// Recovery, when non-nil, enables the runtime error-recovery engine
	// on both SPM controllers: DUE re-fetch from DRAM, background
	// scrubbing, and wear-triggered graceful degradation.
	Recovery *spm.RecoveryConfig
	// Wear, when non-nil, attaches the STT-RAM write-unreliability model
	// to the STT-RAM regions of both SPMs (SRAM regions are unaffected).
	Wear *spm.WearConfig
}

// InjectionTarget selects which scratchpad(s) a live fault-injection
// campaign strikes.
type InjectionTarget int

// Injection targets. The zero value strikes the data SPM, preserving
// the behaviour of configs written before instruction-SPM targeting
// existed.
const (
	// TargetDataSPM strikes only the data SPM.
	TargetDataSPM InjectionTarget = iota
	// TargetInstSPM strikes only the instruction SPM.
	TargetInstSPM
	// TargetBothSPMs strikes both SPMs, choosing per strike in
	// proportion to each SPM's stored code bits (a larger surface
	// catches more particles).
	TargetBothSPMs
)

// String implements fmt.Stringer.
func (t InjectionTarget) String() string {
	switch t {
	case TargetDataSPM:
		return "data-SPM"
	case TargetInstSPM:
		return "inst-SPM"
	case TargetBothSPMs:
		return "both-SPMs"
	default:
		return fmt.Sprintf("InjectionTarget(%d)", int(t))
	}
}

// Valid reports whether t is a known target.
func (t InjectionTarget) Valid() bool {
	switch t {
	case TargetDataSPM, TargetInstSPM, TargetBothSPMs:
		return true
	default:
		return false
	}
}

// InjectionConfig parameterizes live fault injection.
//
// Strikes are word-granular at every protection level: the struck word
// is chosen in proportion to its stored code bits — a parity word holds
// 33 bits (32 data + 1 check), a SEC-DED word 39 (32 + 7), a DMR word
// 64 — and the flipped cluster stays confined to that word's codeword.
// A multi-bit upset therefore never straddles two words, matching the
// per-word protection-circuit granularity of the paper's Section IV
// analysis.
type InjectionConfig struct {
	// StrikesPerAccess is the probability of one strike landing on the
	// target surface before each memory access (compressed time: real
	// flux is far lower, but vulnerability ratios are rate-invariant).
	StrikesPerAccess float64
	// Dist gives the strike multiplicities (use faults.Dist40nm).
	Dist faults.MBUDistribution
	// Seed makes the campaign reproducible.
	Seed int64
	// Target selects the struck SPM(s); the zero value is the data SPM.
	Target InjectionTarget
	// Storm, when non-nil, replaces the memoryless per-access strike
	// draw with the correlated storm process (faults.StormConfig):
	// Markov-modulated burst intensities, spatially clustered
	// multi-word events, thermal wear ramps, and adversarial
	// hot-block targeting. StrikesPerAccess is ignored under a storm
	// (the calm-state intensity is the background rate); Dist, Seed,
	// and Target apply as usual.
	Storm *faults.StormConfig
	// HotWindows lists the adversarial mode's targets: word ranges
	// holding the profile's hottest blocks. Surface 0 is the
	// instruction SPM, 1 the data SPM; windows on an untargeted SPM
	// are ignored. Only meaningful with Storm.HotBias > 0.
	HotWindows []faults.HotWindow
}

// Sim-convention hot-window surface indices (InjectionConfig.HotWindows).
const (
	HotSurfaceInstSPM = 0
	HotSurfaceDataSPM = 1
)

// DefaultPlatform fills the non-SPM parts of a Config with the Table IV
// platform: two 8 KB unprotected-SRAM L1s and the default off-chip
// memory.
func DefaultPlatform() Config {
	return Config{
		ICache: cache.DefaultL1(),
		DCache: cache.DefaultL1(),
		DRAM:   dram.Default(),
	}
}

// Result reports one simulated execution.
type Result struct {
	// Cycles is the total execution time.
	Cycles memtech.Cycles
	// ThinkCycles is the compute (non-memory) share of Cycles.
	ThinkCycles memtech.Cycles
	// SPMDynamicEnergy is the dynamic energy spent in both SPMs,
	// including the region side of DMA transfers.
	SPMDynamicEnergy memtech.Picojoules
	// SPMStaticEnergy is SPM leakage integrated over the execution.
	SPMStaticEnergy memtech.Millijoules
	// SPMLeakage is the static power of both SPMs.
	SPMLeakage memtech.Milliwatts
	// CacheEnergy and DRAMEnergy are charged outside the SPMs.
	CacheEnergy memtech.Picojoules
	DRAMEnergy  memtech.Picojoules
	// ICtl and DCtl are the controller tallies (on-line phase activity
	// and the per-region access distribution of Figs. 2 and 4).
	ICtl, DCtl spm.ControllerStats
	// ICacheStats and DCacheStats report the cache behaviour of
	// unmapped blocks.
	ICacheStats, DCacheStats cache.Stats
	// DRAMStats reports off-chip traffic.
	DRAMStats dram.Stats
	// Accesses counts simulated memory accesses.
	Accesses uint64
	// DataRegionStats aggregates the raw region counters of the data
	// SPM by kind (DMA traffic included), for post-run analyses such as
	// the retention-relaxation study.
	DataRegionStats map[spm.RegionKind]spm.RegionStats
	// InjectedStrikes counts the particle strikes landed during the run
	// (zero unless Config.Injection was set).
	InjectedStrikes uint64
}

// TotalDynamicEnergy sums SPM, cache, and DRAM dynamic energy.
func (r Result) TotalDynamicEnergy() memtech.Picojoules {
	return r.SPMDynamicEnergy + r.CacheEnergy + r.DRAMEnergy
}

// RecoveryTotals merges the recovery tallies of both SPM controllers.
func (r Result) RecoveryTotals() spm.RecoveryStats {
	t := r.ICtl.Recovery
	t.Add(r.DCtl.Recovery)
	return t
}

// Machine is an assembled platform ready to execute traces.
type Machine struct {
	cfg    Config
	prog   *program.Program
	blocks []program.Block // dense BlockID → block, avoids per-access lookups
	iCache *cache.Cache
	dCache *cache.Cache
	mem    *dram.Memory
	iSPM   *spm.SPM
	dSPM   *spm.SPM
	iCtl   *spm.Controller
	dCtl   *spm.Controller
	probe  func() // fired once per access event, before strike injection
	// iMemo and dMemo hold the last block each address space resolved
	// to, so consecutive accesses to one block skip the binary search.
	iMemo, dMemo program.BlockMemo
}

// ErrNilProgram rejects machine construction without a program image.
var ErrNilProgram = errors.New("sim: program must not be nil")

// New assembles a machine for the program. The placement is split
// between the instruction and data controllers by block kind.
func New(prog *program.Program, cfg Config) (*Machine, error) {
	if prog == nil {
		return nil, ErrNilProgram
	}
	m := &Machine{cfg: cfg, prog: prog, blocks: prog.Blocks()}
	var err error
	if m.iCache, err = cache.New(cfg.ICache); err != nil {
		return nil, fmt.Errorf("sim: icache: %w", err)
	}
	if m.dCache, err = cache.New(cfg.DCache); err != nil {
		return nil, fmt.Errorf("sim: dcache: %w", err)
	}
	if m.mem, err = dram.New(cfg.DRAM); err != nil {
		return nil, fmt.Errorf("sim: dram: %w", err)
	}
	if m.iSPM, err = spm.New(0, cfg.ISPM...); err != nil {
		return nil, fmt.Errorf("sim: ispm: %w", err)
	}
	if m.dSPM, err = spm.New(cfg.ExtraLeakage, cfg.DSPM...); err != nil {
		return nil, fmt.Errorf("sim: dspm: %w", err)
	}

	// Split the placement in ascending BlockID order so the block a
	// validation error names is deterministic, not map-iteration luck.
	ids := make([]program.BlockID, 0, len(cfg.Placement))
	for id := range cfg.Placement {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	iPlace := make(spm.Placement)
	dPlace := make(spm.Placement)
	for _, id := range ids {
		b, err := prog.Block(id)
		if err != nil {
			return nil, fmt.Errorf("sim: placement: %w", err)
		}
		if b.Kind == program.CodeBlock {
			iPlace[id] = cfg.Placement[id]
		} else {
			dPlace[id] = cfg.Placement[id]
		}
	}
	if m.iCtl, err = spm.NewController(m.iSPM, prog, iPlace, m.mem); err != nil {
		return nil, fmt.Errorf("sim: i-controller: %w", err)
	}
	if m.dCtl, err = spm.NewController(m.dSPM, prog, dPlace, m.mem); err != nil {
		return nil, fmt.Errorf("sim: d-controller: %w", err)
	}
	if cfg.Wear != nil {
		// Distinct seed bases keep the two SPMs' wear streams
		// independent while staying reproducible from one config seed.
		if err := m.dSPM.EnableWear(*cfg.Wear); err != nil {
			return nil, fmt.Errorf("sim: d-wear: %w", err)
		}
		iWear := *cfg.Wear
		iWear.Seed ^= 0x5bd1e995
		if err := m.iSPM.EnableWear(iWear); err != nil {
			return nil, fmt.Errorf("sim: i-wear: %w", err)
		}
	}
	if cfg.Recovery != nil {
		if err := m.iCtl.EnableRecovery(*cfg.Recovery); err != nil {
			return nil, fmt.Errorf("sim: i-recovery: %w", err)
		}
		if err := m.dCtl.EnableRecovery(*cfg.Recovery); err != nil {
			return nil, fmt.Errorf("sim: d-recovery: %w", err)
		}
	}
	return m, nil
}

// DataSPM exposes the data scratchpad for post-run analysis (endurance
// write counters, fault injection).
func (m *Machine) DataSPM() *spm.SPM { return m.dSPM }

// InstSPM exposes the instruction scratchpad.
func (m *Machine) InstSPM() *spm.SPM { return m.iSPM }

// InstController exposes the instruction-SPM mapping controller, for
// instruments that attach an op recorder (spm.OpRecorder).
func (m *Machine) InstController() *spm.Controller { return m.iCtl }

// DataController exposes the data-SPM mapping controller.
func (m *Machine) DataController() *spm.Controller { return m.dCtl }

// SetAccessProbe installs a callback fired once per access event, after
// scheduled plan commands apply and before any strike injection — i.e.
// at the exact point in the event stream where the injection RNG would
// be consulted. The packed soak engine uses it to align recorded ops
// with strike schedules. Nil detaches.
func (m *Machine) SetAccessProbe(fn func()) { m.probe = fn }

// Run executes the trace to completion and returns the accounting. A
// machine accumulates state across calls (caches stay warm, blocks stay
// resident); use a fresh Machine per measured run.
func (m *Machine) Run(s trace.Stream) (Result, error) {
	return m.run(nil, s, nil)
}

// ErrCanceled wraps the context error when a run is stopped by
// cancellation or deadline; errors.Is sees through it to
// context.Canceled / context.DeadlineExceeded.
var ErrCanceled = errors.New("sim: run canceled")

// RunContext is Run with cooperative cancellation: the loop polls ctx
// once per batch of trace.BatchLen events and abandons the run with an
// error wrapping ErrCanceled and the context's error once it is done.
// This is the hook that lets a server-side request deadline actually
// stop simulation work instead of merely abandoning its result.
func (m *Machine) RunContext(ctx context.Context, s trace.Stream) (Result, error) {
	return m.run(ctx, s, nil)
}

// RunWithPlan executes the trace with scheduled SPM transfers: before
// the i-th access event, every plan command at position i is executed
// (unmaps, then loads, in plan order). Accesses to blocks the plan
// failed to make resident fall back to the on-demand path, so a plan
// affects cost, never correctness.
func (m *Machine) RunWithPlan(s trace.Stream, plan *schedule.Plan) (Result, error) {
	return m.run(nil, s, plan)
}

func (m *Machine) run(ctx context.Context, s trace.Stream, plan *schedule.Plan) (Result, error) {
	r, err := m.start(plan)
	if err != nil {
		return Result{}, err
	}
	errs := []error{nil}
	if err := drive(ctx, s, []*runState{r}, errs); err != nil {
		return Result{}, err
	}
	if errs[0] != nil {
		return Result{}, errs[0]
	}
	return r.finish(), nil
}

// RunLockstep executes one trace on several machines at once: each
// batch read from s is fed to every machine in turn, so the trace is
// generated once for all of them and never held whole. results[i] and
// errs[i] are machine i's, exactly what machines[i].Run would return on
// its own copy of the trace; a machine that fails stops there while the
// others run on. Machines must be distinct.
func RunLockstep(s trace.Stream, machines []*Machine) (results []Result, errs []error) {
	results = make([]Result, len(machines))
	errs = make([]error, len(machines))
	runs := make([]*runState, len(machines))
	for i, m := range machines {
		runs[i], errs[i] = m.start(nil)
	}
	_ = drive(nil, s, runs, errs) // a nil context never cancels
	for i, r := range runs {
		if errs[i] == nil {
			results[i] = r.finish()
		}
	}
	return results, errs
}

// drive reads s batch by batch and feeds each batch to every run that
// has no error in errs yet, recording a run's failure there. It stops
// once s is exhausted or every run has failed. It polls ctx once per
// batch (nil never cancels) and returns an error wrapping ErrCanceled
// once ctx is done. A single run is the one-run case.
func drive(ctx context.Context, s trace.Stream, runs []*runState, errs []error) error {
	live := 0
	for _, err := range errs {
		if err == nil {
			live++
		}
	}
	var events uint64
	buf := make([]trace.Event, trace.BatchLen)
	for live > 0 {
		batch := trace.ReadBatch(s, buf)
		if len(batch) == 0 {
			break
		}
		events += uint64(len(batch))
		for i, r := range runs {
			if errs[i] != nil {
				continue
			}
			if errs[i] = r.feed(batch); errs[i] != nil {
				live--
			}
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("%w after %d events: %w", ErrCanceled, events, err)
			}
		}
	}
	return nil
}

// runState is one machine's progress through one trace: the running
// Result plus the plan, injection and storm cursors. The event loop is
// feed, called batch by batch by drive.
type runState struct {
	m         *Machine
	res       Result
	plan      *schedule.Plan
	planPos   int
	accessIdx int
	strikeRNG *rand.Rand
	storm     *stormState
}

// start validates the machine's injection settings and opens a run.
func (m *Machine) start(plan *schedule.Plan) (*runState, error) {
	r := &runState{m: m, plan: plan}
	switch {
	case m.cfg.Injection != nil && m.cfg.Injection.Storm != nil:
		var err error
		if r.storm, err = m.newStormState(); err != nil {
			return nil, err
		}
	case m.cfg.Injection != nil && m.cfg.Injection.StrikesPerAccess > 0:
		if err := m.cfg.Injection.Dist.Validate(); err != nil {
			return nil, fmt.Errorf("sim: injection: %w", err)
		}
		if !m.cfg.Injection.Target.Valid() {
			return nil, fmt.Errorf("sim: injection: unknown target %d", int(m.cfg.Injection.Target))
		}
		r.strikeRNG = rand.New(rand.NewSource(m.cfg.Injection.Seed))
	}
	return r, nil
}

// feed executes one batch of events.
func (r *runState) feed(batch []trace.Event) error {
	m, res, plan := r.m, &r.res, r.plan
	for i := range batch {
		e := &batch[i]
		switch e.Kind {
		case trace.KindCall, trace.KindReturn:
			res.Cycles++
		case trace.KindAccess:
			if plan != nil {
				for r.planPos < len(plan.Commands) && plan.Commands[r.planPos].AtAccess <= r.accessIdx {
					cycles, err := m.applyCommand(plan.Commands[r.planPos])
					if err != nil {
						return err
					}
					res.Cycles += cycles
					r.planPos++
				}
			}
			r.accessIdx++
			if m.probe != nil {
				m.probe()
			}
			if r.strikeRNG != nil && r.strikeRNG.Float64() < m.cfg.Injection.StrikesPerAccess {
				if _, err := m.strikeTarget(r.strikeRNG).InjectStrike(r.strikeRNG, m.cfg.Injection.Dist); err != nil {
					return fmt.Errorf("sim: injection: %w", err)
				}
				res.InjectedStrikes++
			}
			if r.storm != nil {
				if err := r.storm.step(res); err != nil {
					return err
				}
			}
			a := &e.Access
			res.Cycles += memtech.Cycles(a.Think)
			res.ThinkCycles += memtech.Cycles(a.Think)
			res.Accesses++
			cycles, err := m.access(a)
			if err != nil {
				return err
			}
			res.Cycles += cycles
		default:
			return fmt.Errorf("sim: unknown event kind %v", e.Kind)
		}
	}
	return nil
}

// finish closes the run: the end-of-program cache flush and the
// energy, cache, DRAM and region accounting.
func (r *runState) finish() Result {
	m, res := r.m, r.res

	// Drain dirty cache lines so every structure has written its state
	// back (end-of-program flush, charged to the run).
	dirtyWords := m.dCache.Flush()
	if dirtyWords > 0 {
		cycles, _ := m.mem.Burst(dirtyWords, true)
		res.Cycles += cycles
	}

	res.SPMDynamicEnergy = m.iSPM.DynamicEnergy() + m.dSPM.DynamicEnergy()
	res.SPMLeakage = m.iSPM.Leakage() + m.dSPM.Leakage()
	res.SPMStaticEnergy = memtech.StaticEnergy(res.SPMLeakage, res.Cycles)
	res.ICacheStats = m.iCache.Stats()
	res.DCacheStats = m.dCache.Stats()
	res.CacheEnergy = res.ICacheStats.EnergyPicojoules + res.DCacheStats.EnergyPicojoules
	res.DRAMStats = m.mem.Stats()
	res.DRAMEnergy = res.DRAMStats.EnergyPicojoules
	res.ICtl = m.iCtl.Stats()
	res.DCtl = m.dCtl.Stats()
	res.DataRegionStats = make(map[spm.RegionKind]spm.RegionStats)
	for _, r := range m.dSPM.Regions() {
		agg := res.DataRegionStats[r.Kind()]
		st := r.Stats()
		agg.ReadAccesses += st.ReadAccesses
		agg.WriteAccesses += st.WriteAccesses
		agg.WordsRead += st.WordsRead
		agg.WordsWritten += st.WordsWritten
		agg.Energy += st.Energy
		agg.CorrectedErrors += st.CorrectedErrors
		agg.DetectedErrors += st.DetectedErrors
		agg.SilentReads += st.SilentReads
		res.DataRegionStats[r.Kind()] = agg
	}
	return res
}

// stormState drives one run's correlated fault storm: the
// seed-deterministic faults.StormProcess plus the SPM surfaces it
// strikes and the thermal coupling into the wear models.
type stormState struct {
	proc      *faults.StormProcess
	spms      []*spm.SPM // process surface index → struck SPM
	thermal   bool       // wear model attached and ThermalFactor > 1
	lastScale float64
	iSPM      *spm.SPM
	dSPM      *spm.SPM
}

// newStormState builds the storm process over the targeted SPMs. The
// surface order follows the injection target (inst before data for
// TargetBothSPMs), and hot windows are translated from the
// HotSurface* convention, dropping windows on untargeted SPMs.
func (m *Machine) newStormState() (*stormState, error) {
	inj := m.cfg.Injection
	if !inj.Target.Valid() {
		return nil, fmt.Errorf("sim: injection: unknown target %d", int(inj.Target))
	}
	st := &stormState{iSPM: m.iSPM, dSPM: m.dSPM, lastScale: 1}
	instSurf, dataSurf := -1, -1
	switch inj.Target {
	case TargetInstSPM:
		st.spms = []*spm.SPM{m.iSPM}
		instSurf = 0
	case TargetBothSPMs:
		st.spms = []*spm.SPM{m.iSPM, m.dSPM}
		instSurf, dataSurf = 0, 1
	default:
		st.spms = []*spm.SPM{m.dSPM}
		dataSurf = 0
	}
	surfaces := make([][]faults.RegionSurface, len(st.spms))
	for i, s := range st.spms {
		surfaces[i] = s.StrikeSurface()
	}
	var hot []faults.HotWindow
	for _, w := range inj.HotWindows {
		switch w.Surface {
		case HotSurfaceInstSPM:
			w.Surface = instSurf
		case HotSurfaceDataSPM:
			w.Surface = dataSurf
		default:
			return nil, fmt.Errorf("sim: injection: hot window surface %d is neither inst (%d) nor data (%d)",
				w.Surface, HotSurfaceInstSPM, HotSurfaceDataSPM)
		}
		if w.Surface < 0 {
			continue // the window's SPM is not targeted
		}
		hot = append(hot, w)
	}
	proc, err := faults.NewStormProcess(*inj.Storm, inj.Dist, inj.Seed, surfaces, hot)
	if err != nil {
		return nil, fmt.Errorf("sim: injection: %w", err)
	}
	st.proc = proc
	st.thermal = m.cfg.Wear != nil && inj.Storm.Normalized().ThermalFactor > 1
	return st, nil
}

// step advances the storm one access, lands its events on the SPM
// words, and forwards the thermal wear scale when it moves.
func (st *stormState) step(res *Result) error {
	events := st.proc.Step()
	if len(events) > 0 {
		res.InjectedStrikes++
		for _, ev := range events {
			r, err := st.spms[ev.Surface].Region(ev.Region)
			if err != nil {
				return fmt.Errorf("sim: storm: %w", err)
			}
			if err := r.ApplyStrikeDelta(ev.Word, ev.Delta); err != nil {
				return fmt.Errorf("sim: storm: %w", err)
			}
		}
	}
	if st.thermal {
		if scale := st.proc.WearScale(); scale != st.lastScale {
			st.lastScale = scale
			st.iSPM.SetWearScale(scale)
			st.dSPM.SetWearScale(scale)
		}
	}
	return nil
}

// strikeTarget picks the SPM one particle strike lands on per the
// injection target, weighting TargetBothSPMs by stored code bits.
func (m *Machine) strikeTarget(rng *rand.Rand) *spm.SPM {
	switch m.cfg.Injection.Target {
	case TargetInstSPM:
		return m.iSPM
	case TargetBothSPMs:
		iBits, dBits := m.iSPM.StoredBits(), m.dSPM.StoredBits()
		if total := iBits + dBits; total > 0 && rng.Intn(total) < iBits {
			return m.iSPM
		}
		return m.dSPM
	default:
		return m.dSPM
	}
}

// applyCommand executes one scheduled transfer command on the
// controller owning the block's address space.
func (m *Machine) applyCommand(cmd schedule.Command) (memtech.Cycles, error) {
	b, err := m.prog.Block(cmd.Block)
	if err != nil {
		return 0, fmt.Errorf("sim: plan: %w", err)
	}
	ctl := m.dCtl
	if b.Kind == program.CodeBlock {
		ctl = m.iCtl
	}
	if cmd.Load {
		return ctl.MapIn(cmd.Block)
	}
	return ctl.Unmap(cmd.Block)
}

// access routes one memory access to the SPM controller of its space or,
// for unmapped blocks, through the cache hierarchy.
func (m *Machine) access(a *trace.Access) (memtech.Cycles, error) {
	ctl, l1, memo := m.dCtl, m.dCache, &m.dMemo
	if a.Space == trace.Code {
		ctl, l1, memo = m.iCtl, m.iCache, &m.iMemo
	}
	id, ok := memo.Find(m.prog, a.Addr)
	if !ok {
		return 0, fmt.Errorf("sim: access at %#x outside all blocks", a.Addr)
	}
	b := &m.blocks[id]

	if ctl.IsMapped(id) {
		cost, err := ctl.Access(id, int(a.Addr-b.Addr), int(a.Size), a.Op == trace.Write)
		if err == nil {
			return cost.Cycles, nil
		}
		if !errors.Is(err, spm.ErrNotMapped) {
			return 0, err
		}
		// The controller demoted the block mid-run (graceful
		// degradation found no region with room): fall through to the
		// cache path, which serves it from here on.
	}

	// Cache path: array access plus any off-chip fill/write-back.
	r := l1.Access(a.Addr, int(a.Size), a.Op == trace.Write)
	cycles := r.Cycles
	if r.WritebackWords > 0 {
		c, _ := m.mem.Burst(r.WritebackWords, true)
		cycles += c
	}
	if r.FillWords > 0 {
		c, _ := m.mem.Burst(r.FillWords, false)
		cycles += c
	}
	return cycles, nil
}
