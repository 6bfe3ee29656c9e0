package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ftspm/internal/campaign"
	"ftspm/internal/experiments"
)

func TestRunSoakEndToEnd(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "soak.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-structures", "ftspm",
		"-trials", "2",
		"-scale", "0.02",
		"-strike", "0.01",
		"-scrub", "512",
		"-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Soak campaign", "FTSPM", "recovery activity", "DUE/strike"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var reports []*experiments.SoakReport
	if err := json.Unmarshal(blob, &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Trials != 2 || reports[0].Strikes == 0 {
		t.Errorf("unexpected JSON reports: %+v", reports)
	}
}

// TestRunSoakCanonicalStructureNames feeds back the structure names the
// reports print.
func TestRunSoakCanonicalStructureNames(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-structures", "DMR-SRAM,pure-STT-RAM",
		"-trials", "1", "-scale", "0.02"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DMR-SRAM", "pure-STT-RAM"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in output:\n%s", want, buf.String())
		}
	}
}

func TestRunSoakFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-structures", "warp-core"},
		{"-target", "moon"},
		{"-policy", "shrug"},
		{"-workload", "no-such-workload"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunSoakUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-resume"}, // resume requires -checkpoint
		{"-trials", "0"},
		{"-scale", "-1"},
		{"-strike", "1.5"},
		{"-retries", "-1"},
		{"-job-timeout", "-1s"},
		{"-audit-frac", "1.5"},
		{"-audit-frac", "0.1"}, // audits need -workers
		{"-parallel", "-1"},
		{"-lease", "-1s"},
		{"-structures", "warp-core"},
		{"-lanes", "-7"},
		{"-lanes", "65"},
		{"-lanes", "999"},
	}
	for _, args := range cases {
		err := run(context.Background(), args, &bytes.Buffer{})
		if err == nil {
			t.Errorf("args %v accepted", args)
			continue
		}
		if campaign.ExitCode(err) != campaign.ExitUsage {
			t.Errorf("args %v: exit code %d, want %d (err: %v)",
				args, campaign.ExitCode(err), campaign.ExitUsage, err)
		}
	}
}

// TestRunSoakCheckpointResume drives the CLI path end to end: a
// checkpointed run, then a resume that must skip every trial and emit
// identical JSON.
func TestRunSoakCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "soak.ckpt")
	args := func(jsonPath string, extra ...string) []string {
		return append([]string{
			"-structures", "ftspm,sram",
			"-trials", "2",
			"-scale", "0.02",
			"-strike", "0.01",
			"-checkpoint", ckpt,
			"-json", jsonPath,
		}, extra...)
	}
	first := filepath.Join(dir, "first.json")
	if err := run(context.Background(), args(first), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	// Re-running onto an existing checkpoint without -resume must be
	// rejected, not silently overwrite the journal.
	if err := run(context.Background(), args(first), &bytes.Buffer{}); err == nil {
		t.Fatal("second run without -resume accepted")
	}
	second := filepath.Join(dir, "second.json")
	var buf bytes.Buffer
	if err := run(context.Background(), args(second, "-resume"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "resumed 4 finished trials") {
		t.Errorf("resume did not skip the journaled trials:\n%s", buf.String())
	}
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed JSON differs:\n%s\nvs\n%s", a, b)
	}
}

// TestRunSoakWarmCache drives -cache end to end: a cold run fills the
// cache file, a warm run of the same campaign answers every trial from
// it, and the JSON reports are byte-identical.
func TestRunSoakWarmCache(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "soak.cache")
	args := func(jsonPath string) []string {
		return []string{
			"-structures", "ftspm",
			"-trials", "2",
			"-scale", "0.02",
			"-strike", "0.01",
			"-cache", cache,
			"-json", jsonPath,
		}
	}
	cold := filepath.Join(dir, "cold.json")
	var coldBuf bytes.Buffer
	if err := run(context.Background(), args(cold), &coldBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(coldBuf.String(), "0 hits, 2 misses") {
		t.Errorf("cold run cache line missing:\n%s", coldBuf.String())
	}
	warm := filepath.Join(dir, "warm.json")
	var warmBuf bytes.Buffer
	if err := run(context.Background(), args(warm), &warmBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warmBuf.String(), "2 hits, 0 misses") {
		t.Errorf("warm run not served from cache:\n%s", warmBuf.String())
	}
	cb, err := os.ReadFile(cold)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := os.ReadFile(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb, wb) {
		t.Fatalf("warm reports diverge from cold:\n got %s\nwant %s", wb, cb)
	}
}

// TestFlagSurface pins every flag's name, type and default, so moving
// flags between packages cannot silently change the command line.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"adaptive bool false",
		"audit-frac float64 0",
		"audit-seed int64 0",
		"cache string ",
		"checkpoint string ",
		"cpuprofile string ",
		"job-timeout time.Duration 0s",
		"json string ",
		"lanes int 0",
		"lease time.Duration 0s",
		"memprofile string ",
		"no-recovery bool false",
		"parallel int 0",
		"perfjson string ",
		"policy string rollback",
		"resume bool false",
		"retries int 0",
		"scale float64 0.05",
		"scrub uint64 4096",
		"seed int64 1",
		"storm bool false",
		"storm-calm float64 0.001",
		"storm-calm-dwell float64 4000",
		"storm-dwell float64 400",
		"storm-hot float64 0",
		"storm-hot-blocks int 4",
		"storm-intensity float64 0.2",
		"storm-span int 2",
		"storm-thermal float64 1",
		"strike float64 0.01",
		"structures string ftspm,sram,stt",
		"target string data",
		"trials int 8",
		"wear-fail float64 0",
		"wear-stuck float64 0",
		"workers string ",
		"workload string casestudy",
	}
	var got []string
	flagsHook = func(fs *flag.FlagSet) {
		fs.SetOutput(io.Discard)
		fs.VisitAll(func(f *flag.Flag) {
			got = append(got, fmt.Sprintf("%s %T %s", f.Name, f.Value.(flag.Getter).Get(), f.DefValue))
		})
	}
	defer func() { flagsHook = nil }()
	if err := run(context.Background(), []string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}

// TestRunSoakPerfArtifacts drives the profiling flags: both profiles
// are written and -perfjson appends one line with the record's field
// names.
func TestRunSoakPerfArtifacts(t *testing.T) {
	dir := t.TempDir()
	perf := filepath.Join(dir, "perf.jsonl")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run(context.Background(), []string{"-structures", "ftspm", "-trials", "2", "-scale", "0.02",
		"-perfjson", perf, "-cpuprofile", cpu, "-memprofile", mem}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
		}
	}
	data, err := os.ReadFile(perf)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("bad perfjson line %q: %v", data, err)
	}
	var keys []string
	for k := range rec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"alloc_bytes", "allocs", "benchmark", "gomaxprocs", "lanes", "scale", "trials", "wall_ms"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("perfjson fields = %v, want %v", keys, want)
	}
}
