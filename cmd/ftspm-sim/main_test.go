package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"ftspm/internal/campaign"
)

func TestRunSimFTSPM(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-workload", "sha", "-structure", "ftspm", "-scale", "0.05"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"sha on FTSPM", "execution:", "SPM dynamic:", "vulnerability:",
		"endurance:", "Data-SPM traffic", "on-line phase:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunSimBaselines(t *testing.T) {
	for _, s := range []string{"sram", "stt"} {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-workload", "crc32", "-structure", s, "-scale", "0.05"}, &buf); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	// The pure SRAM baseline has no STT-RAM wear to report.
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-workload", "crc32", "-structure", "sram", "-scale", "0.05"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no STT-RAM wear") {
		t.Error("pure SRAM run should report no STT-RAM wear")
	}
}

func TestRunSimErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-structure", "bogus"}, &buf); campaign.ExitCode(err) != campaign.ExitUsage {
		t.Errorf("bad structure: %v, want a usage error", err)
	}
	if err := run(context.Background(), []string{"-workload", "bogus"}, &buf); err == nil {
		t.Error("bad workload accepted")
	}
	if err := run(context.Background(), []string{"-not-a-flag"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunSimWithPlanAndPriority(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-workload", "fft", "-plan", "-scale", "0.05",
		"-priority", "endurance"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "static SMI schedule") {
		t.Error("plan banner missing")
	}
	if !strings.Contains(out, "Vulnerability by region") {
		t.Error("per-region AVF breakdown missing")
	}
	if err := run(context.Background(), []string{"-priority", "bogus"}, &buf); err == nil {
		t.Error("bad priority accepted")
	}
	// DMR structure reachable from the CLI.
	buf.Reset()
	if err := run(context.Background(), []string{"-workload", "crc32", "-structure", "dmr", "-scale", "0.05"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DMR") {
		t.Error("DMR run missing structure name")
	}
	// The canonical name a report prints is accepted back.
	buf.Reset()
	if err := run(context.Background(), []string{"-workload", "crc32", "-structure", "pure-STT-RAM", "-scale", "0.05"}, &buf); err != nil {
		t.Fatal(err)
	}
}

// TestRunHonoursDeadline: the evaluation runs under the command's
// context (the signal context in main), so a deadline or a SIGINT stops
// a run that would take seconds well before it finishes.
func TestRunHonoursDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := run(ctx, []string{"-scale", "16"}, io.Discard)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("run took %v after a 50ms deadline, want a prompt stop", elapsed)
	}
}
