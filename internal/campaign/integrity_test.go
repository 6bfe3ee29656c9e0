package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// v1Fixture is a frozen pre-envelope (v1) journal, byte for byte as PRs
// 3-7 wrote them: bare result records, no per-record checksums. It must
// stay resumable forever.
const v1Fixture = `{"v":1,"config_hash":"h"}
{"id":"job/00","status":"done","attempts":1,"value":0}
{"id":"job/01","status":"done","attempts":1,"value":1}
{"id":"job/02","status":"failed","attempts":2,"value":0,"error":"boom"}
`

func writeFixture(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestV1JournalResumesCleanly(t *testing.T) {
	path := writeFixture(t, v1Fixture)
	cfg := Config{CheckpointPath: path, ConfigHash: "h", Resume: true}
	rep, err := Run(context.Background(), cfg, sumJobs(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 3 || rep.Completed != 3 || rep.Failed != 1 {
		t.Fatalf("report: %+v", rep)
	}
	// Appends onto a v1 journal stay in v1 form so the file remains
	// uniformly parseable: the new record must be a bare result line,
	// not a checksum envelope.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("journal has %d lines, want 5:\n%s", len(lines), blob)
	}
	if strings.Contains(lines[4], `"crc"`) {
		t.Fatalf("v1 journal grew a v2 envelope record: %s", lines[4])
	}
	// And the whole mixed file still verifies offline.
	info, err := VerifyJournal(blob)
	if err != nil {
		t.Fatalf("VerifyJournal: %v", err)
	}
	if info.Version != 1 || info.Records != 4 || info.Done != 3 || info.Failed != 1 {
		t.Fatalf("info = %+v", info)
	}
}

// v2Journal writes a fresh 3-job v2 journal and returns its path.
func v2Journal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	cfg := Config{CheckpointPath: path, ConfigHash: "h"}
	if _, err := Run(context.Background(), cfg, sumJobs(3)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestV2SingleFlippedByteIsBitrotNotTruncation(t *testing.T) {
	path := v2Journal(t)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every byte position of every record line in turn
	// (skipping the header and the newlines themselves): resume must
	// fail with the bitrot error every time, never silently truncate —
	// including flips in the FINAL record, which a torn-tail heuristic
	// would happily drop.
	headerEnd := strings.IndexByte(string(blob), '\n') + 1
	for off := headerEnd; off < len(blob); off++ {
		if blob[off] == '\n' {
			continue
		}
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x04
		if mut[off] == '\n' { // a flip must not fabricate a line break here
			continue
		}
		mpath := writeFixture(t, string(mut))
		cfg := Config{CheckpointPath: mpath, ConfigHash: "h", Resume: true}
		_, err := Run(context.Background(), cfg, sumJobs(3))
		if !errors.Is(err, ErrJournalBitrot) {
			t.Fatalf("flip at byte %d: err = %v, want ErrJournalBitrot", off, err)
		}
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("flip at byte %d: bitrot must wrap ErrCorruptCheckpoint, got %v", off, err)
		}
	}
}

func TestV2BitrotErrorNamesByteOffset(t *testing.T) {
	path := v2Journal(t)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the second record; the error must name the offset of the
	// line it starts at.
	nl1 := strings.IndexByte(string(blob), '\n') + 1 // after header
	nl2 := nl1 + strings.IndexByte(string(blob[nl1:]), '\n') + 1
	mut := append([]byte(nil), blob...)
	mut[nl2+10] ^= 0x01
	_, err = VerifyJournal(mut)
	if !errors.Is(err, ErrJournalBitrot) {
		t.Fatalf("err = %v, want ErrJournalBitrot", err)
	}
	if want := "at byte " + strconv.Itoa(nl2); !strings.Contains(err.Error(), want) {
		t.Fatalf("err %q does not name offset %q", err, want)
	}
}

func TestV2TornTailStillTolerated(t *testing.T) {
	path := v2Journal(t)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"crc":"0102","sum":"ab","r":{"id":"job/9`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := VerifyJournal(blob)
	if err != nil {
		t.Fatalf("VerifyJournal: %v", err)
	}
	if info.TornBytes == 0 || info.Records != 3 {
		t.Fatalf("info = %+v, want torn tail over 3 records", info)
	}
	cfg := Config{CheckpointPath: path, ConfigHash: "h", Resume: true}
	rep, err := Run(context.Background(), cfg, sumJobs(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 3 {
		t.Fatalf("resumed %d, want 3", rep.Resumed)
	}
}

func TestInvalidationTombstoneRerunsJobOnResume(t *testing.T) {
	path := v2Journal(t)
	led, err := OpenLedger(path, "h", true, []string{"job/00", "job/01", "job/02"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job/00", "job/01", "job/02"} {
		if r, ok := led.Result(id); !ok || !r.Resumed {
			t.Fatalf("%s not resumed: %+v", id, r)
		}
	}
	if err := led.Revoke("job/01"); err != nil {
		t.Fatal(err)
	}
	if rep, err := led.Close(); err != nil || rep.Resumed != 2 || rep.Completed != 2 {
		t.Fatalf("after revoke: report %+v, err %v; want 2 resumed and completed", rep, err)
	}

	reran := false
	jobs := sumJobs(3)
	inner := jobs[1].Run
	jobs[1].Run = func(ctx context.Context) (json.RawMessage, error) {
		reran = true
		return inner(ctx)
	}
	cfg := Config{CheckpointPath: path, ConfigHash: "h", Resume: true}
	rep, err := Run(context.Background(), cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reran {
		t.Fatal("invalidated job was not re-executed on resume")
	}
	if rep.Resumed != 2 || rep.Completed != 3 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestVerifyJournalRejectsStructuralDamage(t *testing.T) {
	for name, blob := range map[string]string{
		"empty":          "",
		"no header":      `{"id":"x","status":"done","attempts":1,"value":0}` + "\n",
		"garbage header": "not json\n",
	} {
		if _, err := VerifyJournal([]byte(blob)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%s: err = %v, want ErrCorruptCheckpoint", name, err)
		}
	}
}
