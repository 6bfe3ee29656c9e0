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
	"strings"
	"testing"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
)

func TestRunMapTableII(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-workload", "casestudy", "-scale", "0.1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Array1", "SRAM(ECC)", "SRAM(parity)", "write threshold"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

// TestParseStructure checks that the -structure flag accepts every
// spelling of the three mappable structures and names the resolved one
// in the table title, and rejects unknown names and DMR as usage errors.
func TestParseStructure(t *testing.T) {
	tests := map[string]core.Structure{
		"ftspm": core.StructFTSPM, "FTSPM": core.StructFTSPM,
		"sram": core.StructPureSRAM, "pure-sram": core.StructPureSRAM,
		"stt": core.StructPureSTT, "stt-ram": core.StructPureSTT, "pure-stt": core.StructPureSTT,
	}
	for in, want := range tests {
		var buf bytes.Buffer
		err := run(context.Background(), []string{"-structure", in, "-scale", "0.02"}, &buf)
		if err != nil {
			t.Errorf("-structure %q: %v", in, err)
			continue
		}
		if title := fmt.Sprintf("on %v (", want); !strings.Contains(buf.String(), title) {
			t.Errorf("-structure %q: output lacks %q", in, title)
		}
	}
	for _, bad := range []string{"dram", "dmr"} {
		err := run(context.Background(), []string{"-structure", bad}, io.Discard)
		if campaign.ExitCode(err) != campaign.ExitUsage {
			t.Errorf("-structure %q: %v, want a usage error", bad, err)
		}
	}
}

func TestRunMapCSVAndErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-workload", "sha", "-scale", "0.05", "-csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "Block,") {
		t.Error("csv header missing")
	}
	for _, args := range [][]string{
		{"-structure", "bogus"},
		{"-structure", "dmr"},
		{"-priority", "bogus"},
	} {
		if err := run(context.Background(), args, &buf); campaign.ExitCode(err) != campaign.ExitUsage {
			t.Errorf("args %v: %v, want a usage error", args, err)
		}
	}
	if err := run(context.Background(), []string{"-workload", "bogus"}, &buf); err == nil {
		t.Error("bad workload accepted")
	}
}

// TestRunMapPerfArtifacts drives the new profiling flags: -perfjson
// appends a MapBlocks measurement line and the pprof flags produce
// non-empty profile files.
func TestRunMapPerfArtifacts(t *testing.T) {
	dir := t.TempDir()
	perf := filepath.Join(dir, "perf.json")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-workload", "casestudy", "-scale", "0.05",
		"-perfjson", perf, "-cpuprofile", cpu, "-memprofile", mem,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Two invocations append two JSON lines.
	if err := run(context.Background(), []string{
		"-workload", "casestudy", "-scale", "0.05", "-perfjson", perf,
	}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(perf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("perfjson lines = %d, want 2:\n%s", len(lines), data)
	}
	for _, line := range lines {
		var m mapMeasurement
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad perfjson line %q: %v", line, err)
		}
		if m.Benchmark != "MapBlocks" || m.Workload != "casestudy" || m.WallMS <= 0 {
			t.Errorf("unexpected measurement: %+v", m)
		}
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
		}
	}
}

// TestFlagSurface pins every flag's name, type and default, so moving
// flags between packages cannot silently change the command line.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"cpuprofile string ",
		"csv bool false",
		"memprofile string ",
		"perfjson string ",
		"priority string reliability",
		"scale float64 0.25",
		"structure string ftspm",
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
