package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftspm/internal/campaign"
)

// writeJournal builds a real v2 journal with two done results and one
// tombstone, exactly as a campaign run would.
func writeJournal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "soak.ckpt")
	ids := []string{"job/00", "job/01"}
	led, err := campaign.OpenLedger(path, "cafe", false, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := led.Add(campaign.Result[json.RawMessage]{
			ID: id, Status: campaign.StatusDone, Attempts: 1,
			Value: json.RawMessage(`{"metric":7}`),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := led.Revoke("job/01"); err != nil {
		t.Fatal(err)
	}
	if _, err := led.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVerifyCleanJournal(t *testing.T) {
	path := writeJournal(t)
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatalf("verify clean journal: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"journal v2", "config cafe", "1 invalidation tombstone", "OK"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// Tentpole acceptance: a single flipped byte inside a v2 record must be
// detected and exit nonzero (run returns an error), naming bitrot.
func TestVerifyDetectsSingleFlippedByte(t *testing.T) {
	path := writeJournal(t)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the journal, past the header.
	i := bytes.Index(blob, []byte("metric"))
	if i < 0 {
		t.Fatal("fixture has no payload byte to flip")
	}
	blob[i] ^= 0x04
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err = run([]string{path}, &out)
	if !errors.Is(err, campaign.ErrJournalBitrot) {
		t.Fatalf("err = %v, want ErrJournalBitrot", err)
	}
	if campaign.ExitCode(err) == 0 {
		t.Fatal("corrupt journal must exit nonzero")
	}
}

func TestVerifyTornTailIsCleanButReported(t *testing.T) {
	path := writeJournal(t)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"crc":"dead`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatalf("torn tail must verify clean: %v", err)
	}
	if !strings.Contains(out.String(), "torn tail: 12 byte(s)") {
		t.Fatalf("torn tail not reported:\n%s", out.String())
	}
}

func TestVerifyJSONOutput(t *testing.T) {
	path := writeJournal(t)
	var out bytes.Buffer
	if err := run([]string{"-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	var info campaign.JournalInfo
	if err := json.Unmarshal(out.Bytes(), &info); err != nil {
		t.Fatalf("unparseable -json output: %v\n%s", err, out.String())
	}
	if info.Version != 2 || info.Done != 1 || info.Invalidated != 1 {
		t.Fatalf("info = %+v, want v2 with 1 live done and 1 tombstone", info)
	}
}

func TestVerifyUsageErrors(t *testing.T) {
	if err := run(nil, io.Discard); campaign.ExitCode(err) != 2 {
		t.Fatalf("missing arg: err = %v, want usage error (exit 2)", err)
	}
	if err := run([]string{"a", "b"}, io.Discard); campaign.ExitCode(err) != 2 {
		t.Fatalf("two args: err = %v, want usage error (exit 2)", err)
	}
}
