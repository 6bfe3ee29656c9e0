// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload in its own process:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// With -trace 0 it sets the workload up, times it for -seconds, checks
// every output against a committed golden or a direct call, and prints
// the end-to-end metrics. With -trace 1 it instead makes one traced
// pass over every workload, timing the calls into each layer's public
// functions, and prints the per-layer metrics (see trace.go). The last
// line of standard output is always the result object; a failed output
// check exits 1 without printing one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart approximates the process start: package variables are
// initialized before main runs.
var processStart = time.Now()

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload is built from.
type config struct {
	root    string // repository root: goldens are read relative to it
	scratch string // private directory for journals and data dirs
	seed    int64
	tiny    bool // small sizes, for the benchmark's own tests
}

// phase is what a workload's timed phase measured.
type phase struct {
	samples   []float64 // wall time of each op, ms
	windows   []window
	attempted int // ops attempted
	failed    int // ops that failed or were refused
}

// window is one stretch of a timed phase: one op of the sequential
// workloads, or one block of serveBlock completed requests. Rates are
// reported as medians over windows, so a burst of load from outside
// the process moves a few windows, not the result.
type window struct {
	units    int    // units of work completed (jobs, trials, requests)
	accesses uint64 // simulated SPM accesses
	wall     time.Duration
	cpu      time.Duration // process user+system CPU time
	// tail is the window's tail latency in ms (serve only): the highest
	// percentile of its requests with ten samples beyond it, p99.
	tail float64
}

// workload is one named benchmark input.
type workload interface {
	// setup does the fixed, real work a user pays once per run: an
	// untimed warm-up op, or serve's pre-warm set.
	setup(ctx context.Context) error
	// timed runs ops for at least d.
	timed(ctx context.Context, d time.Duration) (phase, error)
	// check compares every recorded output with its reference.
	check(ctx context.Context) error
	// close releases servers and listeners.
	close()
}

var workloadNames = []string{"sweep", "soak", "serve", "fabric"}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "sweep":
		return newSweep(cfg), nil
	case "soak":
		return newSoak(cfg), nil
	case "serve":
		return newServe(cfg), nil
	case "fabric":
		return newFabric(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep, soak, serve or fabric")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 makes the traced per-layer run instead of the timed run")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run runs one workload from the repository root, which holds the
// goldens; journals and data dirs go to a private directory under
// .bench_build, and the traced run's spans to perfbench/out.
func run(name string, seed int64, seconds float64, traced bool) error {
	const root = "."
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := config{root: root, scratch: dir, seed: seed}
	ctx := context.Background()

	var res *result
	if traced {
		res, err = runTraced(ctx, cfg, name, filepath.Join(root, "perfbench", "out"))
	} else {
		res, err = runTimed(ctx, cfg, name, time.Duration(seconds*float64(time.Second)))
	}
	if err != nil {
		return err
	}
	// The machine description is gathered after the measurement so it
	// never counts as set-up.
	envLine, err := json.Marshal(map[string]any{"env": describeEnv(root)})
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// minTailSamples is the op count the timed phase always reaches, so
// that tail_ms has ten samples beyond it.
const minTailSamples = 11

// runTimed is the untraced run that yields every end-to-end metric.
func runTimed(ctx context.Context, cfg config, name string, d time.Duration) (*result, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	// setup_s is the wall time from process start to the start of the
	// timed phase: one set-up, the work a user pays once per run.
	runtime.GC()
	if err := w.setup(ctx); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", name, err)
	}
	runtime.GC()
	setup := time.Since(processStart).Seconds()

	steal0, total0 := cpuSteal()
	ph, err := w.timed(ctx, d)
	if err != nil {
		return nil, fmt.Errorf("%s: timed phase: %w", name, err)
	}
	rss := maxRSSMB() // before the output check allocates
	if steal, total := cpuSteal(); total > total0 {
		// Time the hypervisor gave this machine's CPUs to other guests
		// slows every wall-clock metric; stated so a slow run can be
		// told from a slow program.
		fmt.Fprintf(os.Stderr, "%s: %.1f%% of CPU time stolen by the host during the timed phase\n",
			name, 100*float64(steal-steal0)/float64(total-total0))
	}
	if err := w.check(ctx); err != nil {
		return nil, fmt.Errorf("%s: output check failed: %w", name, err)
	}
	if len(ph.samples) == 0 || len(ph.windows) == 0 {
		return nil, fmt.Errorf("%s: timed phase completed no work", name)
	}

	var tail float64
	if ph.windows[0].tail > 0 {
		tail = medianOf(ph.windows, func(w window) float64 { return w.tail })
		fmt.Fprintf(os.Stderr, "%s: %d ops; tail_ms is the median over %d windows of %d requests of each window's p99 (10 samples beyond)\n",
			name, len(ph.samples), len(ph.windows), ph.windows[0].units)
	} else {
		var pct float64
		var beyond int
		if tail, pct, beyond, err = tailOf(ph.samples); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		note := ""
		if beyond == len(ph.samples)-1 {
			note = ", the fastest op: not a tail signal"
		}
		fmt.Fprintf(os.Stderr, "%s: %d ops; tail_ms is p%.2f of %d samples (%d beyond%s)\n",
			name, len(ph.samples), pct, len(ph.samples), beyond, note)
	}

	m := map[string]metric{
		"setup_s":    {setup, "s"},
		"max_rss_mb": {rss, "MB"},
		"ops_per_s": {medianOf(ph.windows, func(w window) float64 {
			return float64(w.units) / w.wall.Seconds()
		}), "1/s"},
		"op_ms":   {median(ph.samples), "ms"},
		"tail_ms": {tail, "ms"},
		"cpu_ms_per_op": {medianOf(ph.windows, func(w window) float64 {
			return ms(w.cpu) / float64(w.units)
		}), "ms"},
		"sim_accesses_per_s": {medianOf(ph.windows, func(w window) float64 {
			return float64(w.accesses) / w.wall.Seconds()
		}), "1/s"},
	}
	return &result{
		Correct:   true,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   m,
	}, nil
}

// loopOps runs op back to back until d has passed and at least
// minTailSamples ops are done; each op is one window. op returns the
// units of work and the simulated accesses it completed, and the part
// of its wall time that counts as the op (0: all of it).
func loopOps(ctx context.Context, d time.Duration, op func(i int) (int, uint64, time.Duration, error)) (phase, error) {
	var ph phase
	start := time.Now()
	for i := 0; time.Since(start) < d || len(ph.samples) < minTailSamples; i++ {
		if err := ctx.Err(); err != nil {
			return ph, err
		}
		t0, cpu0 := time.Now(), cpuTime()
		units, acc, el, err := op(i)
		if el == 0 {
			el = time.Since(t0)
		}
		cpu := cpuTime() - cpu0
		ph.attempted++
		if err != nil {
			return ph, err
		}
		ph.samples = append(ph.samples, ms(el))
		ph.windows = append(ph.windows, window{units: units, accesses: acc, wall: el, cpu: cpu})
	}
	return ph, nil
}

// medianOf is the median of f over the windows.
func medianOf(ws []window, f func(window) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSteal returns the machine's steal and total CPU ticks from
// /proc/stat (zeros where it is unreadable).
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest percentile of xs that has at least ten
// samples beyond it: the value, its percentile, and the count beyond.
func tailOf(xs []float64) (v, pct float64, beyond int, err error) {
	n := len(xs)
	if n < minTailSamples {
		return 0, 0, 0, fmt.Errorf("tail needs %d samples, have %d", minTailSamples, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - minTailSamples
	return s[k], 100 * float64(k+1) / float64(n), n - 1 - k, nil
}
