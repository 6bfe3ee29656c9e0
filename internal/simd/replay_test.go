package simd

import (
	"context"
	"testing"

	"ftspm/internal/ecc"
	"ftspm/internal/faults"
	"ftspm/internal/spm"
)

// TestReplayPlantedSchedules replays a hand-made skeleton (one SEC-DED
// region of 4 words: a write of every word at access 1, checked reads
// of word 0 at access 4 and of word 1 at access 6, 7 accesses in all)
// under planted schedules, and checks each lane against its
// hand-derived outcome. Lanes 2 and 3 strike at the same access, so
// the due heap breaks a tie.
func TestReplayPlantedSchedules(t *testing.T) {
	codec := ecc.MustHamming(32)
	sk := &Skeleton{
		regions: []regionState{{codec: codec, classify: codec, words: 4}},
		ops: []op{
			{kind: opWrite, region: 0, word: 0, words: 4, atAccess: 1, addrW: 100},
			{kind: opAccessRead, region: 0, word: 0, words: 1, atAccess: 4},
			{kind: opAccessRead, region: 0, word: 1, words: 1, atAccess: 6},
		},
		accesses:   7,
		baseBenign: 4,
	}
	e, err := NewEngine(sk, Injection{})
	if err != nil {
		t.Fatal(err)
	}
	plant := [][]strike{
		// Lane 0: no strikes.
		nil,
		// Lane 1: a single flip after the last op; only the audit sees it.
		{{atAccess: 7, word: 1, delta: 1 << 3}},
		// Lane 2: two strikes on word 0 that cancel before the read.
		{{atAccess: 3, word: 0, delta: 0b110}, {atAccess: 3, word: 0, delta: 0b110}},
		// Lane 3: a single flip at the read's own access lands before it.
		{{atAccess: 3, word: 3, delta: 1 << 7}, {atAccess: 4, word: 0, delta: 1 << 5}, {atAccess: 4, word: 3, delta: 1 << 7}},
		// Lane 4: two different flips on word 2, one before and one
		// after the last op, which the audit sees as a double error.
		{{atAccess: 2, word: 2, delta: 1}, {atAccess: 7, word: 2, delta: 1 << 1}},
		// Lane 5: the only strike due at the second read's access, with
		// every other lane's next strike later.
		{{atAccess: 6, word: 1, delta: 1 << 9}},
	}
	want := []TrialResult{
		{Audit: faults.Tally{Benign: 4}},
		{Audit: faults.Tally{Benign: 3, DRE: 1}},
		{Audit: faults.Tally{Benign: 4}},
		{Recovery: spm.RecoveryStats{CorrectedOnAccess: 1}, Audit: faults.Tally{Benign: 4}},
		{Audit: faults.Tally{Benign: 3, DUE: 1}},
		{Recovery: spm.RecoveryStats{CorrectedOnAccess: 1}, Audit: faults.Tally{Benign: 4}},
	}
	out := make([]TrialResult, len(plant))
	// Twice on one engine: the second batch must start from power-on.
	for round := 0; round < 2; round++ {
		e.reset(len(plant))
		for l, sc := range plant {
			e.sched[l] = sc
		}
		if err := e.replay(context.Background(), len(plant), out); err != nil {
			t.Fatal(err)
		}
		for l := range want {
			want[l].Accesses = sk.accesses
			if out[l] != want[l] {
				t.Errorf("round %d lane %d:\ngot  %+v\nwant %+v", round, l, out[l], want[l])
			}
			if e.cursor[l] != len(plant[l]) {
				t.Errorf("round %d lane %d: %d of %d strikes applied", round, l, e.cursor[l], len(plant[l]))
			}
		}
	}
}
