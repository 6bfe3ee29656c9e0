// Package cli is the campaign front end the commands share. Its
// campaign half (Campaign) registers and validates the flags of a
// crash-safe campaign, owns the result cache's lifetime, chooses
// between the local runner and the distributed fabric, and prints the
// run-summary lines; ftspm-bench and ftspm-soak use it. Its profiling
// half (Profile) registers -cpuprofile, -memprofile and -perfjson and
// appends one measurement per run; ftspm-map uses it too.
package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ftspm/internal/campaign"
	"ftspm/internal/experiments"
	"ftspm/internal/fabric"
	"ftspm/internal/fabric/wire"
	"ftspm/internal/resultcache"
)

// Campaign holds a command's parsed campaign flags and, after Open, its
// result cache.
type Campaign struct {
	name string // flag set name, prefixing fabric log lines
	unit string // what one job is called: "sweep job", "trial"

	// local holds the flags the local runner shares with the fabric,
	// and the cache once Open has opened it.
	local              experiments.CampaignConfig
	cachePath, workers string
	lease              time.Duration
	auditFrac          float64
	auditSeed          int64
}

// AddCampaignFlags registers the campaign flags on fs. unit names one
// job of the command's campaign in help and summary lines.
func AddCampaignFlags(fs *flag.FlagSet, unit string) *Campaign {
	c := &Campaign{name: fs.Name(), unit: unit}
	fs.StringVar(&c.local.Checkpoint, "checkpoint", "", "journal finished "+unit+"s to this file (crash-safe campaign)")
	fs.BoolVar(&c.local.Resume, "resume", false, "skip "+unit+"s already journaled in -checkpoint")
	fs.StringVar(&c.cachePath, "cache", "", "memoize finished "+unit+"s in this content-addressed cache file (warm runs skip recomputing)")
	fs.IntVar(&c.local.Workers, "parallel", 0, unit+" worker pool size, local or per fabric chunk (0: GOMAXPROCS)")
	fs.StringVar(&c.workers, "workers", "", "comma-separated ftspmd worker URLs: distribute the campaign over the fabric")
	fs.DurationVar(&c.lease, "lease", 0, "fabric heartbeat lease before a silent worker is declared dead (0: 60s)")
	fs.Float64Var(&c.auditFrac, "audit-frac", 0, "fraction of fabric results to audit by re-execution on a different executor (0 disables)")
	fs.Int64Var(&c.auditSeed, "audit-seed", 0, "seed for the deterministic audit job selection")
	fs.IntVar(&c.local.Retries, "retries", 0, "per-job retries before a "+unit+" is recorded failed")
	fs.DurationVar(&c.local.JobTimeout, "job-timeout", 0, "per-job deadline for "+unit+"s (0: none)")
	return c
}

// Open validates the parsed flags, returning a usage error for a bad
// value or combination, and opens the -cache file. The caller defers
// Close.
func (c *Campaign) Open() error {
	if c.auditFrac < 0 || c.auditFrac > 1 {
		return campaign.Usagef("-audit-frac must be a probability in [0, 1] (got %g)", c.auditFrac)
	}
	if c.auditFrac > 0 && c.workers == "" {
		return campaign.Usagef("-audit-frac requires -workers (audits re-execute fabric results)")
	}
	if err := c.local.Validate(); err != nil {
		return err
	}
	if c.local.Workers < 0 {
		return campaign.Usagef("-parallel must be >= 0 (got %d)", c.local.Workers)
	}
	if c.lease < 0 {
		return campaign.Usagef("-lease must be >= 0 (got %v)", c.lease)
	}
	if c.cachePath != "" {
		rc, err := resultcache.Open(resultcache.Config{Path: c.cachePath, Fingerprint: wire.Fingerprint()})
		if err != nil {
			return fmt.Errorf("cache: %w", err)
		}
		c.local.Cache = rc
	}
	return nil
}

// Close closes the result cache, if Open opened one.
func (c *Campaign) Close() error {
	if c.local.Cache == nil {
		return nil
	}
	return c.local.Cache.Close()
}

// Run is the command's experiments.Executor: the distributed fabric
// over -workers, or the local crash-safe runner without them.
func (c *Campaign) Run(ctx context.Context, src *experiments.JobSource) (*campaign.Report, error) {
	if c.workers == "" {
		return c.local.RunLocal(ctx, src)
	}
	return fabric.Config{
		Workers:    fabric.ParseWorkers(c.workers),
		Parallel:   c.local.Workers,
		Lease:      c.lease,
		Retries:    c.local.Retries,
		JobTimeout: c.local.JobTimeout,
		Checkpoint: c.local.Checkpoint,
		Resume:     c.local.Resume,
		AuditFrac:  c.auditFrac,
		AuditSeed:  c.auditSeed,
		Cache:      c.local.Cache,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, c.name+": "+format+"\n", args...)
		},
	}.Run(ctx, src)
}

// CacheStats returns the result cache's counters, or nil without
// -cache.
func (c *Campaign) CacheStats() *resultcache.Stats {
	if c.local.Cache == nil {
		return nil
	}
	cs := c.local.Cache.Stats()
	return &cs
}

// PrintSummary prints the run-summary lines of a finished or drained
// campaign: jobs resumed from the checkpoint, the result-cache
// counters, each failed job, and the fabric's integrity-audit outcome.
// The audit lines belong on the text stream, never in -json artifacts,
// which must stay byte-identical to a single-node run.
func (c *Campaign) PrintSummary(out io.Writer, st *experiments.CampaignStatus) {
	if st.Resumed > 0 {
		fmt.Fprintf(out, "resumed %d finished %ss from %s\n", st.Resumed, c.unit, c.local.Checkpoint)
	}
	if cs := c.CacheStats(); cs != nil {
		fmt.Fprintf(out, "result cache: %d hits, %d misses, %d bypasses (%d entries)\n",
			cs.Hits, cs.Misses, cs.Bypasses, cs.Entries)
	}
	for _, f := range st.Failures {
		fmt.Fprintf(out, "%s %s failed after %d attempt(s): %s\n", c.unit, f.ID, f.Attempts, f.Error)
		if f.Stack != "" {
			fmt.Fprintf(out, "%s\n", f.Stack)
		}
	}
	a := st.Audit
	if a == nil {
		return
	}
	fmt.Fprintf(out, "audit: %d re-executed, %d passed, %d divergence(s), %d unaudited result(s) invalidated and re-run\n",
		a.Audited, a.Passed, len(a.Divergences), a.Invalidated)
	for _, d := range a.Divergences {
		fmt.Fprintf(out, "audit: DIVERGENCE job %s on %s: worker returned %s, re-execution says %s\n",
			d.JobID, d.Worker, d.GotSum, d.WantSum)
	}
	for _, s := range a.SuspectWorkers {
		fmt.Fprintf(out, "audit: worker %s CONVICTED and quarantined\n", s)
	}
}

// Profile holds a command's parsed profiling flags and the start of its
// measured section.
type Profile struct {
	name string // flag set name, prefixing error lines

	cpu, mem string
	// PerfJSON is the -perfjson file, empty when no measurement is
	// wanted.
	PerfJSON string

	start  time.Time
	before runtime.MemStats
}

// AddProfileFlags registers -cpuprofile, -memprofile and -perfjson on
// fs.
func AddProfileFlags(fs *flag.FlagSet) *Profile {
	p := &Profile{name: fs.Name()}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a pprof heap profile at exit to this file")
	fs.StringVar(&p.PerfJSON, "perfjson", "", "append a wall-clock/allocation measurement of the run to this JSON-lines file")
	return p
}

// Start starts the -cpuprofile recording. The returned stop ends it and
// writes the -memprofile heap profile; the caller defers it.
func (p *Profile) Start() (stop func(), err error) {
	var cpu *os.File
	if p.cpu != "" {
		if cpu, err = os.Create(p.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: cpuprofile: %v\n", p.name, err)
			}
		}
		if p.mem != "" {
			if err := writeHeapProfile(p.mem); err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", p.name, err)
			}
		}
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize the retained-heap picture
	if err := pprof.WriteHeapProfile(f); err != nil {
		return err
	}
	return f.Close()
}

// Measurement is the part of a -perfjson record every command shares:
// the wall-clock and allocation cost of the measured section.
// Allocation deltas are process-wide, so run with a quiet process for
// clean numbers.
type Measurement struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	WallMS     float64 `json:"wall_ms"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Allocs     uint64  `json:"allocs"`
}

// Mark starts the measured section.
func (p *Profile) Mark() {
	runtime.ReadMemStats(&p.before)
	p.start = time.Now()
}

// Measure returns the cost of the section since Mark.
func (p *Profile) Measure() Measurement {
	wall := time.Since(p.start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return Measurement{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		WallMS:     float64(wall.Microseconds()) / 1e3,
		AllocBytes: after.TotalAlloc - p.before.TotalAlloc,
		Allocs:     after.Mallocs - p.before.Mallocs,
	}
}

// Append appends rec, a command's record embedding a Measurement, as
// one JSON line to the -perfjson file. The line is fsynced before
// close: append-only history cannot be renamed into place atomically,
// but it must survive a crash right after the run it measures.
func (p *Profile) Append(rec any) error {
	f, err := os.OpenFile(p.PerfJSON, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}
