package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ftspm/internal/profile"
	"ftspm/internal/program"
	"ftspm/internal/trace"
)

// randomProfile builds a random program and trace and profiles it —
// fuzz-style input for the MDA invariants below.
func randomProfile(t *testing.T, rng *rand.Rand) *profile.Profile {
	t.Helper()
	p := program.New("fuzz")
	nCode := 1 + rng.Intn(3)
	nData := 1 + rng.Intn(6)
	for i := 0; i < nCode; i++ {
		size := 256 + rng.Intn(40)*512
		p.MustAddBlock(fmt.Sprintf("C%d", i), program.CodeBlock, size)
	}
	for i := 0; i < nData; i++ {
		size := 64 + rng.Intn(30)*256
		p.MustAddBlock(fmt.Sprintf("D%d", i), program.DataBlock, size)
	}
	if rng.Intn(2) == 0 {
		p.MustAddBlock("Stack", program.StackBlock, 128+rng.Intn(8)*64)
	}

	blocks := p.Blocks()
	var evs []trace.Event
	n := 200 + rng.Intn(2000)
	for i := 0; i < n; i++ {
		b := blocks[rng.Intn(len(blocks))]
		space := trace.Data
		op := trace.Read
		if b.Kind == program.CodeBlock {
			space = trace.Code
		} else if rng.Float64() < 0.4 {
			op = trace.Write
		}
		off := rng.Intn(b.Size) &^ 3
		size := 4
		if rng.Intn(4) == 0 {
			size = 4 * (1 + rng.Intn(4))
		}
		if off+size > b.Size {
			size = b.Size - off
			if size < 1 {
				size = 1
			}
		}
		evs = append(evs, trace.AccessEvent(trace.Access{
			Op: op, Space: space, Addr: b.Addr + uint32(off), Size: int32(size),
			Think: rng.Int31n(3),
		}))
	}
	prof, err := profile.Run(p, trace.NewSliceStream(evs))
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestMDAInvariantsOnRandomProfiles(t *testing.T) {
	// Property test: for arbitrary profiles, every structure, and every
	// priority, the MDA must terminate with a placement in which
	//   (1) every block has exactly one decision,
	//   (2) the placement agrees with the mapped decisions,
	//   (3) every mapped block fits the region it targets,
	//   (4) only kinds present in the structure are used.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		prof := randomProfile(t, rng)
		for _, s := range AllStructures() {
			spec := MustSpec(s)
			for _, prio := range []Priority{
				PriorityReliability, PriorityPerformance, PriorityPower, PriorityEndurance,
			} {
				m, err := MapBlocks(prof, spec, DefaultThresholds(), prio)
				if err != nil {
					t.Fatalf("trial %d %v/%v: %v", trial, s, prio, err)
				}
				if len(m.Decisions) != prof.Program().NumBlocks() {
					t.Fatalf("trial %d %v: %d decisions for %d blocks",
						trial, s, len(m.Decisions), prof.Program().NumBlocks())
				}
				mapped := 0
				for _, d := range m.Decisions {
					if !d.Mapped {
						continue
					}
					mapped++
					kind, ok := m.Placement[d.Block.ID]
					if !ok || kind != d.Target {
						t.Fatalf("trial %d %v: decision/placement mismatch for %s",
							trial, s, d.Block.Name)
					}
					var capacity int
					if d.Block.Kind == program.CodeBlock {
						if kind != spec.CodeKind {
							t.Fatalf("trial %d %v: code block in %v", trial, s, kind)
						}
						capacity = spec.ISPMBytes()
					} else {
						capacity = spec.DataRegionBytes(kind)
					}
					if capacity <= 0 {
						t.Fatalf("trial %d %v: block %s mapped to absent region %v",
							trial, s, d.Block.Name, kind)
					}
					if d.Block.Size > capacity {
						t.Fatalf("trial %d %v: %s (%d B) exceeds %v (%d B)",
							trial, s, d.Block.Name, d.Block.Size, kind, capacity)
					}
				}
				if mapped != len(m.Placement) {
					t.Fatalf("trial %d %v: %d mapped decisions vs %d placements",
						trial, s, mapped, len(m.Placement))
				}
			}
		}
	}
}
