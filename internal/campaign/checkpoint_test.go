package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// journalFor runs a small checkpointed campaign and returns the path.
func journalFor(t *testing.T, hash string, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	cfg := Config{CheckpointPath: path, ConfigHash: hash}
	if _, err := Run(context.Background(), cfg, sumJobs(n)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTornTrailingLineTolerated(t *testing.T) {
	path := journalFor(t, "h", 3)
	// Simulate a crash mid-append: a partial record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"job/99","status":"do`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := Config{CheckpointPath: path, ConfigHash: "h", Resume: true}
	rep, err := Run(context.Background(), cfg, sumJobs(4))
	if err != nil {
		t.Fatal(err)
	}
	// The three complete records resumed; the torn one was dropped and
	// its job (job/03 here stands in) re-ran; the journal is parseable
	// again afterwards.
	if rep.Resumed != 3 || rep.Completed != 4 {
		t.Fatalf("report: %+v", rep)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimRight(string(blob), "\n"), "\n") {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Errorf("line %d not a complete JSON object: %q", i, line)
		}
	}
}

func TestCorruptMiddleLineIsHardError(t *testing.T) {
	path := journalFor(t, "h", 3)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(blob), "\n")
	if len(lines) < 4 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	lines[1] = "not json at all\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{CheckpointPath: path, ConfigHash: "h", Resume: true}
	if _, err := Run(context.Background(), cfg, sumJobs(3)); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
}

func TestMissingHeaderRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(path, []byte(`{"id":"x","status":"done","attempts":1,"value":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{CheckpointPath: path, ConfigHash: "h", Resume: true}
	if _, err := Run(context.Background(), cfg, sumJobs(1)); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
}

func TestJournalValueRoundTripsExactly(t *testing.T) {
	// Checkpointed results must reproduce bit-exact values after the
	// JSON round trip — the byte-identical-resume guarantee rests on
	// this.
	type payload struct {
		F float64
		U uint64
		M map[int]float64
	}
	want := payload{
		F: 0.1 + 0.2, // a value with no short decimal representation
		U: 1<<63 + 12345,
		M: map[int]float64{7: 1.0 / 3.0},
	}
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	jobs := []Job{{
		ID:  "p",
		Run: jsonRun(func(context.Context) (payload, error) { return want, nil }),
	}}
	cfg := Config{CheckpointPath: path, ConfigHash: "h"}
	if _, err := Run(context.Background(), cfg, jobs); err != nil {
		t.Fatal(err)
	}
	jobs[0].Run = jsonRun(func(context.Context) (payload, error) {
		return payload{}, errors.New("must not re-run")
	})
	cfg.Resume = true
	rep, err := Run(context.Background(), cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got := decode[payload](t, rep.Results["p"])
	if got.F != want.F || got.U != want.U || got.M[7] != want.M[7] {
		t.Fatalf("round trip drifted: %+v vs %+v", got, want)
	}
	if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
		t.Fatalf("formatted values differ: %v vs %v", got, want)
	}
}
