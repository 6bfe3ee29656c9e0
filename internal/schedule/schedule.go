// Package schedule implements the second (on-line) phase of FTSPM as the
// paper actually deploys it: an off-line tool walks the profiled access
// sequence and inserts explicit SPM-mapping commands — the paper's "SPM
// Mapping Instructions" (SMI, after [16]) — at the proper points of the
// code, so blocks are transferred between off-chip memory and the SPM at
// statically-known moments instead of on demand.
//
// Because the whole access sequence is known off-line, the planner uses
// Belady's MIN policy for evictions: when a region must make room, it
// displaces the resident block whose next use is farthest in the future.
// The simulator's fallback path is the on-demand LRU controller, so a
// plan can only reduce transfer traffic; the ablation benchmark
// (BenchmarkAblation_ScheduledVsOnDemand) quantifies the gap.
package schedule

import (
	"errors"
	"fmt"

	"ftspm/internal/memtech"
	"ftspm/internal/program"
	"ftspm/internal/spm"
	"ftspm/internal/trace"
)

// Command is one SMI: before issuing the access at trace position
// AtAccess, transfer a block.
type Command struct {
	// AtAccess is the 0-based index (counting access events only) the
	// command precedes.
	AtAccess int
	// Block is the transferred block.
	Block program.BlockID
	// Load is true for a map-in, false for an unmap (with write-back of
	// dirty contents).
	Load bool
}

// Plan is the full transfer schedule of one workload under one
// placement.
type Plan struct {
	// Commands are ordered by AtAccess (unmaps before loads at the same
	// position).
	Commands []Command
	// Loads and Evictions count the planned transfers.
	Loads, Evictions int
}

// Errors returned by Build.
var (
	ErrNilProgram   = errors.New("schedule: program must not be nil")
	ErrNilPlacement = errors.New("schedule: placement must not be nil")
	ErrBlockTooBig  = errors.New("schedule: block larger than its target region")
)

// regionState tracks planned occupancy of one region kind.
type regionState struct {
	capacityWords int
	freeWords     int
	resident      map[program.BlockID]bool
}

// Build walks the trace and produces the transfer schedule for the
// mapped data and code blocks of the placement. regionWords gives the
// capacity in 32-bit words of each region kind used by the placement
// (per SPM side — the instruction SPM's kind capacity applies to code
// blocks, the data SPM's to data blocks; pass the two maps merged with
// the helper RegionWords).
func Build(prog *program.Program, place spm.Placement, s trace.Stream,
	codeWords, dataWords map[spm.RegionKind]int) (*Plan, error) {
	if prog == nil {
		return nil, ErrNilProgram
	}
	if place == nil {
		return nil, ErrNilPlacement
	}

	// Pass 1: extract the sequence of accesses to mapped blocks.
	type use struct {
		at    int
		block program.BlockID
	}
	var uses []use
	accessIdx := 0
	for {
		e, ok := s.Next()
		if !ok {
			break
		}
		if e.Kind != trace.KindAccess {
			continue
		}
		id, found := prog.FindAddr(e.Access.Addr)
		if found {
			if _, mapped := place[id]; mapped {
				uses = append(uses, use{at: accessIdx, block: id})
			}
		}
		accessIdx++
	}

	// Planned occupancy per (side, kind): the code and data SPMs are
	// physically separate structures.
	type sideKind struct {
		code bool
		kind spm.RegionKind
	}
	states := make(map[sideKind]*regionState)
	stateFor := func(b program.Block, kind spm.RegionKind) (*regionState, error) {
		key := sideKind{code: b.Kind == program.CodeBlock, kind: kind}
		words := dataWords[kind]
		if key.code {
			words = codeWords[kind]
		}
		st, ok := states[key]
		if !ok {
			st = &regionState{
				capacityWords: words,
				freeWords:     words,
				resident:      make(map[program.BlockID]bool),
			}
			states[key] = st
		}
		if memtech.WordsIn(b.Size) > st.capacityWords {
			return nil, fmt.Errorf("%w: %s (%d B) -> %v", ErrBlockTooBig, b.Name, b.Size, kind)
		}
		return st, nil
	}

	// cursors[block] = sorted positions where the block is used; each
	// block keeps a monotonically-advancing cursor so Belady victim
	// selection is amortized O(1) per query.
	cursors := make(map[program.BlockID][]int)
	for i, u := range uses {
		cursors[u.block] = append(cursors[u.block], i)
	}
	cursorPos := make(map[program.BlockID]int)
	nextUseOf := func(id program.BlockID, now int) int {
		list := cursors[id]
		p := cursorPos[id]
		for p < len(list) && list[p] <= now {
			p++
		}
		cursorPos[id] = p
		if p == len(list) {
			return len(uses)
		}
		return list[p]
	}

	plan := &Plan{}
	for i, u := range uses {
		b, err := prog.Block(u.block)
		if err != nil {
			return nil, err
		}
		kind := place[u.block]
		st, err := stateFor(b, kind)
		if err != nil {
			return nil, err
		}
		if st.resident[u.block] {
			continue
		}
		need := memtech.WordsIn(b.Size)
		// Belady: evict residents with the farthest next use until the
		// block fits.
		for st.freeWords < need {
			victim := program.BlockID(-1)
			farthest := -1
			for id := range st.resident {
				n := nextUseOf(id, i)
				// Tie-break on block ID for determinism.
				if n > farthest || (n == farthest && id < victim) {
					farthest = n
					victim = id
				}
			}
			vb, err := prog.Block(victim)
			if err != nil {
				return nil, err
			}
			delete(st.resident, victim)
			st.freeWords += memtech.WordsIn(vb.Size)
			plan.Commands = append(plan.Commands, Command{
				AtAccess: u.at, Block: victim, Load: false,
			})
			plan.Evictions++
		}
		st.resident[u.block] = true
		st.freeWords -= need
		plan.Commands = append(plan.Commands, Command{
			AtAccess: u.at, Block: u.block, Load: true,
		})
		plan.Loads++
	}
	return plan, nil
}

// RegionWords returns the per-kind word capacities of a region
// configuration list.
func RegionWords(configs []spm.RegionConfig) map[spm.RegionKind]int {
	out := make(map[spm.RegionKind]int, len(configs))
	for _, rc := range configs {
		out[rc.Kind] += rc.SizeBytes / memtech.WordBytes
	}
	return out
}
