package spm

import (
	"reflect"
	"testing"

	"ftspm/internal/dram"
	"ftspm/internal/memtech"
)

// TestDUEPolicyTable pins the recovery policy both soak engines share:
// for every site, residency class, dirty policy, recovery switch and
// re-fetch outcome, the action taken, the one RecoveryStats counter it
// bumps, and its per-word charge. The recovery-off and re-fetch-failed
// columns are applied the way recoverDUE applies them.
func TestDUEPolicyTable(t *testing.T) {
	const (
		acc, scr          = SiteAccess, SiteScrub
		free, clean, dirt = ScrubWordFree, ScrubWordClean, ScrubWordDirty
		sdc, rb           = DUEAsSDC, DUERollback
		on, off           = true, false
		ok, fail          = true, false
	)
	wc := WordCharges{Refetch: 100, Restore: 10, Repair: 10}
	rows := []struct {
		site      DUESite
		class     byte
		policy    DUEPolicy
		recovery  bool
		refetchOK bool

		act     RecoveryAction
		counter string
		charge  memtech.Cycles
	}{
		{acc, free, sdc, on, ok, RecoverRestore, "Rollbacks", 10},
		{acc, free, sdc, on, fail, RecoverRestore, "Rollbacks", 10},
		{acc, free, sdc, off, ok, RecoverNone, "UnrecoveredDUEs", 0},
		{acc, free, sdc, off, fail, RecoverNone, "UnrecoveredDUEs", 0},
		{acc, free, rb, on, ok, RecoverRestore, "Rollbacks", 10},
		{acc, free, rb, on, fail, RecoverRestore, "Rollbacks", 10},
		{acc, free, rb, off, ok, RecoverNone, "UnrecoveredDUEs", 0},
		{acc, free, rb, off, fail, RecoverNone, "UnrecoveredDUEs", 0},
		{acc, clean, sdc, on, ok, RecoverRefetch, "RefetchedWords", 100},
		{acc, clean, sdc, on, fail, RecoverRefetch, "UnrecoveredDUEs", 300},
		{acc, clean, sdc, off, ok, RecoverNone, "UnrecoveredDUEs", 0},
		{acc, clean, sdc, off, fail, RecoverNone, "UnrecoveredDUEs", 0},
		{acc, clean, rb, on, ok, RecoverRefetch, "RefetchedWords", 100},
		{acc, clean, rb, on, fail, RecoverRefetch, "UnrecoveredDUEs", 300},
		{acc, clean, rb, off, ok, RecoverNone, "UnrecoveredDUEs", 0},
		{acc, clean, rb, off, fail, RecoverNone, "UnrecoveredDUEs", 0},
		{acc, dirt, sdc, on, ok, RecoverEscalate, "SDCEscalations", 0},
		{acc, dirt, sdc, on, fail, RecoverEscalate, "SDCEscalations", 0},
		{acc, dirt, sdc, off, ok, RecoverNone, "UnrecoveredDUEs", 0},
		{acc, dirt, sdc, off, fail, RecoverNone, "UnrecoveredDUEs", 0},
		{acc, dirt, rb, on, ok, RecoverRollback, "Rollbacks", 5010},
		{acc, dirt, rb, on, fail, RecoverRollback, "Rollbacks", 5010},
		{acc, dirt, rb, off, ok, RecoverNone, "UnrecoveredDUEs", 0},
		{acc, dirt, rb, off, fail, RecoverNone, "UnrecoveredDUEs", 0},

		{scr, free, sdc, on, ok, RecoverRestore, "ScrubRestores", 10},
		{scr, free, sdc, on, fail, RecoverRestore, "ScrubRestores", 10},
		{scr, free, sdc, off, ok, RecoverNone, "ScrubDUEs", 0},
		{scr, free, sdc, off, fail, RecoverNone, "ScrubDUEs", 0},
		{scr, free, rb, on, ok, RecoverRestore, "ScrubRestores", 10},
		{scr, free, rb, on, fail, RecoverRestore, "ScrubRestores", 10},
		{scr, free, rb, off, ok, RecoverNone, "ScrubDUEs", 0},
		{scr, free, rb, off, fail, RecoverNone, "ScrubDUEs", 0},
		{scr, clean, sdc, on, ok, RecoverRefetch, "ScrubRefetches", 100},
		{scr, clean, sdc, on, fail, RecoverRefetch, "ScrubDUEs", 300},
		{scr, clean, sdc, off, ok, RecoverNone, "ScrubDUEs", 0},
		{scr, clean, sdc, off, fail, RecoverNone, "ScrubDUEs", 0},
		{scr, clean, rb, on, ok, RecoverRefetch, "ScrubRefetches", 100},
		{scr, clean, rb, on, fail, RecoverRefetch, "ScrubDUEs", 300},
		{scr, clean, rb, off, ok, RecoverNone, "ScrubDUEs", 0},
		{scr, clean, rb, off, fail, RecoverNone, "ScrubDUEs", 0},
		{scr, dirt, sdc, on, ok, RecoverEscalate, "ScrubDUEs", 0},
		{scr, dirt, sdc, on, fail, RecoverEscalate, "ScrubDUEs", 0},
		{scr, dirt, sdc, off, ok, RecoverNone, "ScrubDUEs", 0},
		{scr, dirt, sdc, off, fail, RecoverNone, "ScrubDUEs", 0},
		{scr, dirt, rb, on, ok, RecoverRollback, "ScrubRestores", 5010},
		{scr, dirt, rb, on, fail, RecoverRollback, "ScrubRestores", 5010},
		{scr, dirt, rb, off, ok, RecoverNone, "ScrubDUEs", 0},
		{scr, dirt, rb, off, fail, RecoverNone, "ScrubDUEs", 0},
	}
	if len(rows) != 2*3*2*2*2 {
		t.Fatalf("%d rows, want one per combination (48)", len(rows))
	}
	for i, row := range rows {
		rc := DefaultRecovery() // 2 re-fetch retries, 5000 rollback cycles
		rc.DirtyPolicy = row.policy
		act := RecoverNone
		if row.recovery {
			act = rc.DUEAction(row.class)
		}
		repaired := act != RecoverRefetch || row.refetchOK
		var st RecoveryStats
		*st.DUECounter(row.site, act, repaired)++
		charge := rc.DUECharge(wc, act, repaired)

		var want RecoveryStats
		reflect.ValueOf(&want).Elem().FieldByName(row.counter).SetUint(1)
		if act != row.act || st != want || charge != row.charge {
			t.Errorf("row %d %+v: action %d, stats %+v, charge %d; want action %d, %s, charge %d",
				i, row, act, st, charge, row.act, row.counter, row.charge)
		}
	}
}

// TestRecoveryChargesMatchTraffic pins a region's per-word charges to
// the cycles of the recovery traffic: one DRAM word, a region word
// write and a verify read per re-fetch attempt, one word write per
// restore or repair.
func TestRecoveryChargesMatchTraffic(t *testing.T) {
	r, err := NewRegion(RegionECC, 256)
	if err != nil {
		t.Fatal(err)
	}
	d := dram.Default()
	mem, err := dram.New(d)
	if err != nil {
		t.Fatal(err)
	}
	burst, _ := mem.Burst(1, false)
	write, err := r.Write(3, []uint32{7})
	if err != nil {
		t.Fatal(err)
	}
	_, read, err := r.Read(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := WordCharges{Refetch: burst + write + read, Restore: write, Repair: write}
	if got := r.RecoveryCharges(d); got != want {
		t.Errorf("RecoveryCharges = %+v, want %+v", got, want)
	}
}
