package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The first failed append ends the journal: a later record would
// complete the failed append's partial line, and resume would refuse
// the file as bitrot instead of truncating a torn tail.
func TestLedgerAppendFailureIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ids := []string{"a", "b", "c"}
	led, err := OpenLedger(path, "h", false, ids)
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected write failure")
	appends := 0
	appendHook = func(Result[json.RawMessage]) error {
		if appends++; appends == 2 {
			return injected
		}
		return nil
	}
	defer func() { appendHook = nil }()

	done := func(id string) Result[json.RawMessage] {
		return Result[json.RawMessage]{ID: id, Status: StatusDone, Attempts: 1, Value: json.RawMessage(`1`)}
	}
	if ok, err := led.Add(done("a")); !ok || err != nil {
		t.Fatalf("first Add = %v, %v", ok, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := led.Add(done("b")); ok || !errors.Is(err, injected) {
		t.Fatalf("second Add = %v, %v; want the injected failure", ok, err)
	}
	if ok, err := led.Add(done("c")); ok || !errors.Is(err, injected) {
		t.Fatalf("Add after the failure = %v, %v; want the first failure again", ok, err)
	}
	if err := led.Revoke("a"); !errors.Is(err, injected) {
		t.Fatalf("Revoke after the failure = %v; want the first failure again", err)
	}
	if after, err := os.Stat(path); err != nil || after.Size() != st.Size() {
		t.Fatalf("journal grew from %d bytes at the failed append (%v, %v)", st.Size(), after, err)
	}
	rep, err := led.Close()
	if !errors.Is(err, injected) {
		t.Fatalf("Close err = %v, want the append failure", err)
	}
	if rep.Completed != 1 || len(rep.PendingIDs) != 2 || rep.PendingIDs[0] != "b" || rep.PendingIDs[1] != "c" {
		t.Fatalf("report %+v, want a completed and [b c] pending", rep)
	}

	appendHook = nil
	led, err = OpenLedger(path, "h", true, ids)
	if err != nil {
		t.Fatalf("resume after a failed append: %v", err)
	}
	if rep, err := led.Close(); err != nil || rep.Resumed != 1 || len(rep.PendingIDs) != 2 {
		t.Fatalf("resumed report %+v, err %v; want a resumed, b and c pending", rep, err)
	}
}

// Resuming needs a journal to resume from; without one the campaign
// would silently rerun every job.
func TestRunResumeWithoutCheckpointRejected(t *testing.T) {
	rep, err := Run(context.Background(), Config{Resume: true}, sumJobs(2))
	if !IsUsage(err) || rep != nil {
		t.Fatalf("Run(Resume, no checkpoint) = %+v, %v; want a usage error", rep, err)
	}
}

// FuzzLedgerResume checks resumed == uninterrupted on generated
// ledgers: each op byte records a done, failed or duplicate result, or
// revokes one, for one of four jobs, and the ledger is closed and
// resumed at the split point. Resuming the final journal must yield
// the results and counts the ledger reported, and those must match a
// first-durable-result-wins model of the ops.
func FuzzLedgerResume(f *testing.F) {
	f.Add([]byte{0, 4, 8, 12}, uint8(0))
	f.Add([]byte{0, 2, 3, 2, 0, 1}, uint8(3))
	f.Add([]byte{1, 5, 3, 7, 0, 4, 2, 6, 15, 14}, uint8(5))
	f.Add([]byte{0, 3, 0, 3, 2, 1, 3}, uint8(2))
	f.Fuzz(func(t *testing.T, ops []byte, split uint8) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		ids := []string{"j0", "j1", "j2", "j3"}
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		model := make(map[string]Result[json.RawMessage])
		open := func(resume bool) *Ledger {
			led, err := OpenLedger(path, "h", resume, ids)
			if err != nil {
				t.Fatal(err)
			}
			return led
		}
		led := open(false)
		for i, op := range ops {
			if i == int(split) {
				if _, err := led.Close(); err != nil {
					t.Fatal(err)
				}
				led = open(true)
			}
			id := ids[int(op/4)%len(ids)]
			res := Result[json.RawMessage]{ID: id, Status: StatusDone, Attempts: 1,
				Value: json.RawMessage(fmt.Sprint(i))}
			switch op % 4 {
			case 1:
				res = Result[json.RawMessage]{ID: id, Status: StatusFailed, Attempts: 2, Err: fmt.Sprint("fault ", i)}
			case 2:
				// A duplicate: a second placement's result for the job.
				if cur, ok := model[id]; ok {
					res = cur
					res.Attempts++
				}
			case 3:
				if err := led.Revoke(id); err != nil {
					t.Fatal(err)
				}
				delete(model, id)
				continue
			}
			ok, err := led.Add(res)
			if err != nil {
				t.Fatal(err)
			}
			if _, had := model[id]; had == ok {
				t.Fatalf("op %d: Add(%s) recorded=%v with a result already recorded=%v", i, id, ok, had)
			}
			if ok {
				model[id] = res
			}
		}
		live, err := led.Close()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := open(true).Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range []*Report{live, resumed} {
			if got, want := journalForm(t, rep.Results), journalForm(t, model); !bytes.Equal(got, want) {
				t.Fatalf("results %s, want %s", got, want)
			}
		}
		if live.Completed != resumed.Completed || live.Failed != resumed.Failed ||
			live.Completed+live.Failed != len(model) || resumed.Resumed != len(model) {
			t.Fatalf("live %d done %d failed, resumed %d done %d failed (%d resumed), model %d",
				live.Completed, live.Failed, resumed.Completed, resumed.Failed, resumed.Resumed, len(model))
		}
	})
}

// journalForm marshals results as the journal records them.
func journalForm(t *testing.T, rs map[string]Result[json.RawMessage]) []byte {
	t.Helper()
	b, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
