package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ftspm/internal/campaign"
	"ftspm/internal/server"
)

func TestRunBenchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-scale", "0.05", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table I", "Table II", "Table III", "Table IV",
		"Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8",
		"Headline results",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in bench output", want)
		}
	}
	// Every artifact lands as .txt and .csv.
	for _, name := range []string{
		"table1_case_study_profile", "table2_case_study_mapping",
		"table3_endurance", "table4_configurations",
		"fig2_case_study_distribution", "fig3_energy_per_access",
		"fig4_suite_distribution", "fig5_vulnerability",
		"fig6_static_energy", "fig7_dynamic_energy", "fig8_endurance",
		"perf_overhead",
	} {
		for _, ext := range []string{".txt", ".csv"} {
			if _, err := os.Stat(filepath.Join(dir, name+ext)); err != nil {
				t.Errorf("missing artifact %s%s: %v", name, ext, err)
			}
		}
	}
}

func TestRunBenchBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-nope"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunBenchAblationsAndJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation suite is slow")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "summary.json")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-scale", "0.05", "-ablations", "-out", dir, "-json", jsonPath}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"ablation_schedule", "ablation_region_split", "ablation_priorities",
		"ablation_write_threshold", "ablation_interleaving", "ablation_scrubbing",
		"related_work", "ablation_retention",
		"ablation_granularity_casestudy", "ablation_granularity_matmul",
		"validation_live_injection", "ablation_tech_node",
	} {
		if _, err := os.Stat(filepath.Join(dir, name+".txt")); err != nil {
			t.Errorf("missing ablation artifact %s: %v", name, err)
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "vulnerability_improvement") {
		t.Error("JSON summary missing headline field")
	}
}

func TestRunBenchUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-resume"}, // resume requires -checkpoint
		{"-scale", "0"},
		{"-retries", "-2"},
		{"-retries", "-1"},
		{"-job-timeout", "-1s"},
		{"-audit-frac", "1.5"},
		{"-audit-frac", "0.1"}, // audits need -workers
		{"-parallel", "-1"},
		{"-lease", "-1s"},
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

// TestFlagSurface pins every flag's name, type and default, so moving
// flags between packages cannot silently change the command line.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"ablations bool false",
		"audit-frac float64 0",
		"audit-seed int64 0",
		"cache string ",
		"checkpoint string ",
		"cpuprofile string ",
		"job-timeout time.Duration 0s",
		"json string ",
		"lease time.Duration 0s",
		"memprofile string ",
		"out string ",
		"parallel int 0",
		"perfjson string ",
		"resume bool false",
		"retries int 0",
		"scale float64 0.25",
		"workers string ",
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

// TestRunBenchFabricMatchesLocal shards the sweep over two in-process
// ftspmd workers: the merged JSON summary must be byte-identical to a
// local run's.
func TestRunBenchFabricMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("two full sweeps")
	}
	dir := t.TempDir()
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Config{DataDir: filepath.Join(dir, fmt.Sprintf("worker-%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	local := filepath.Join(dir, "local.json")
	if err := run(context.Background(), []string{"-scale", "0.05", "-json", local}, io.Discard); err != nil {
		t.Fatal(err)
	}
	dist := filepath.Join(dir, "dist.json")
	if err := run(context.Background(), []string{"-scale", "0.05", "-json", dist,
		"-workers", strings.Join(urls, ",")}, io.Discard); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dist)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("fabric summary differs from local:\n%s\nvs\n%s", b, a)
	}
}

// TestRunBenchPerfArtifacts drives the profiling flags: both profiles
// are written and -perfjson appends one line with the record's field
// names.
func TestRunBenchPerfArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	dir := t.TempDir()
	perf := filepath.Join(dir, "perf.jsonl")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run(context.Background(), []string{"-scale", "0.05",
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
	want := []string{"alloc_bytes", "allocs", "benchmark", "gomaxprocs", "scale", "wall_ms"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("perfjson fields = %v, want %v", keys, want)
	}
}
