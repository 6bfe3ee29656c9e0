package spm

import (
	"testing"

	"ftspm/internal/dram"
	"ftspm/internal/program"
)

// accessCase is one cell of the steady-state access matrix.
type accessCase struct {
	name     string
	recovery bool
	write    bool
	// faulted serves the reads from faultedController instead of the
	// clean fixture.
	faulted bool
}

var accessCases = []accessCase{
	{name: "read"},
	{name: "write", write: true},
	{name: "read-recovery", recovery: true},
	{name: "write-recovery", recovery: true, write: true},
	{name: "read-faulted", faulted: true},
}

// faultedHotWord is the word of the Hot block that faultedController
// strikes. The access loops below read it on their 17th call, after
// the warm-up, so the correcting decode runs inside the measured calls.
const faultedHotWord = 64

// steadyController returns a fixture controller with the Hot block
// already resident, so subsequent Access calls exercise the steady-state
// hot path (no DMA, no eviction).
func steadyController(tb testing.TB, tc accessCase) (*Controller, program.BlockID) {
	tb.Helper()
	if tc.faulted {
		return faultedController(tb)
	}
	ctl, _, ids := ctlFixture(tb)
	if tc.recovery {
		if err := ctl.EnableRecovery(DefaultRecovery()); err != nil {
			tb.Fatal(err)
		}
	}
	hot := ids["Hot"]
	if _, err := ctl.Access(hot, 0, 4, true); err != nil {
		tb.Fatal(err)
	}
	return ctl, hot
}

// faultedController returns a controller whose resident Hot block sits
// in a SEC-DED region holding two single-bit upsets: one in a word
// outside Hot, which no access reads, so it stays suspect and keeps the
// region off the all-clean read path; and one at faultedHotWord, which
// the first read of that word corrects.
func faultedController(tb testing.TB) (*Controller, program.BlockID) {
	tb.Helper()
	s, err := New(0, RegionConfig{Kind: RegionECC, SizeBytes: 2 * 1024})
	if err != nil {
		tb.Fatal(err)
	}
	p := program.New("faulted")
	hot := p.MustAddBlock("Hot", program.DataBlock, 1024)
	mem, err := dram.New(dram.Default())
	if err != nil {
		tb.Fatal(err)
	}
	ctl, err := NewController(s, p, Placement{hot: RegionECC}, mem)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := ctl.Access(hot, 0, 4, true); err != nil {
		tb.Fatal(err)
	}
	res := ctl.resident[hot]
	r := ctl.regions[res.region]
	outside := 0
	if res.baseWord == 0 {
		outside = res.words
	}
	for _, w := range []int{outside, res.baseWord + faultedHotWord} {
		if err := r.ApplyStrikeDelta(w, 1<<3); err != nil {
			tb.Fatal(err)
		}
	}
	return ctl, hot
}

// TestControllerAccessZeroAllocs pins the steady-state access path —
// read and write, with and without the recovery engine, and reads from
// a region holding faulted words — to zero heap allocations per call.
// This is the regression guard for the dense block-indexed controller
// state, the reused scratch buffers and the clean-word read skip
// (DESIGN.md §11); any reintroduced map or per-call make shows up here.
func TestControllerAccessZeroAllocs(t *testing.T) {
	for _, tc := range accessCases {
		t.Run(tc.name, func(t *testing.T) {
			ctl, hot := steadyController(t, tc)
			off := 0
			if n := testing.AllocsPerRun(200, func() {
				if _, err := ctl.Access(hot, off, 16, tc.write); err != nil {
					t.Fatal(err)
				}
				off = (off + 16) % 512
			}); n != 0 {
				t.Errorf("steady-state Access allocates %.1f/op, want 0", n)
			}
			if tc.faulted {
				// Both paths ran: the Hot upset was corrected by a
				// decode, and the untouched one still keeps a word
				// suspect.
				r := ctl.regions[ctl.resident[hot].region]
				if st := r.Stats(); st.CorrectedErrors != 1 || r.nSuspect != 1 {
					t.Errorf("faulted region: %d corrected, %d suspect; want 1 and 1",
						st.CorrectedErrors, r.nSuspect)
				}
			}
		})
	}
}

// BenchmarkControllerAccess times one steady-state controller access —
// the operation every simulated memory reference pays — across the
// read/write × recovery on/off matrix, plus reads from a region
// holding faulted words.
func BenchmarkControllerAccess(b *testing.B) {
	for _, tc := range accessCases {
		b.Run(tc.name, func(b *testing.B) {
			ctl, hot := steadyController(b, tc)
			b.ReportAllocs()
			b.ResetTimer()
			off := 0
			for i := 0; i < b.N; i++ {
				if _, err := ctl.Access(hot, off, 16, tc.write); err != nil {
					b.Fatal(err)
				}
				off = (off + 16) % 512
			}
		})
	}
}
