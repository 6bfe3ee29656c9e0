// Package profile is the reproduction's substitute for the paper's
// static-profiling tool: it runs a workload trace on an idealized
// timeline and produces, per program block, the columns of Table I —
// read/write counts, references (activations), per-reference averages,
// stack-call statistics, and life-time in cycles — plus the live span
// used by the AVF model.
//
// Two notions of time-in-use are recorded, because the paper uses them
// for different purposes:
//
//   - Lifetime: the sum of activation durations, where an activation
//     starts when the block is referenced and ends at the first reference
//     to another block in the same address space (the paper's §IV
//     definition). Susceptibility (Algorithm 1 line 10) multiplies
//     references by this quantity, which is why the heavily-touched but
//     always-briefly-active stack ends up least susceptible.
//   - Span: the interval from the block's first to its last access. The
//     AVF model uses the span as the block's ACE window: data parked in
//     the SPM stays architecturally correct-execution-critical between
//     activations as long as it will be read again.
package profile

import (
	"context"
	"errors"
	"fmt"

	"ftspm/internal/memtech"
	"ftspm/internal/program"
	"ftspm/internal/trace"
)

// BlockProfile aggregates the profiling columns for one block.
type BlockProfile struct {
	// Block is the profiled block.
	Block program.Block
	// Reads and Writes count access events by direction.
	Reads, Writes int
	// ReadWords and WriteWords count touched 32-bit words (an access
	// event may burst several words).
	ReadWords, WriteWords int
	// References counts activations (maximal runs of accesses to this
	// block within its address space).
	References int
	// StackCalls counts call events issued while this code block was
	// active.
	StackCalls int
	// MaxStackBytes is the deepest stack observed while this code block
	// was active.
	MaxStackBytes int
	// Lifetime is the summed activation duration in cycles (see package
	// comment).
	Lifetime memtech.Cycles
	// FirstCycle and LastCycle bound the block's live span.
	FirstCycle, LastCycle memtech.Cycles
	// MaxWordWrites is the write count of the block's hottest word —
	// the per-cell concentration that decides STT-RAM wear (a stack
	// slot rewritten by every call wears out its cell even when the
	// block's total write volume is modest).
	MaxWordWrites int

	wordWrites []int // per-word write counters, allocated on first write
}

// Span returns the first-to-last access interval in cycles.
func (b BlockProfile) Span() memtech.Cycles {
	if b.LastCycle < b.FirstCycle {
		return 0
	}
	return b.LastCycle - b.FirstCycle
}

// Accesses returns reads + writes.
func (b BlockProfile) Accesses() int { return b.Reads + b.Writes }

// AvgReadsPerRef returns the Table I "average number of reads in each
// reference" column.
func (b BlockProfile) AvgReadsPerRef() float64 {
	if b.References == 0 {
		return 0
	}
	return float64(b.Reads) / float64(b.References)
}

// AvgWritesPerRef returns the Table I "average number of writes in each
// reference" column.
func (b BlockProfile) AvgWritesPerRef() float64 {
	if b.References == 0 {
		return 0
	}
	return float64(b.Writes) / float64(b.References)
}

// Susceptibility returns the Algorithm 1 (line 10) vulnerability metric:
// number of block references multiplied by the block's life-time.
func (b BlockProfile) Susceptibility() float64 {
	return float64(b.Accesses()) * float64(b.Lifetime)
}

// Profile is the result of profiling one workload.
type Profile struct {
	// Workload is the profiled workload's name.
	Workload string
	// Blocks holds one entry per program block, indexed by BlockID.
	Blocks []BlockProfile
	// ExecCycles is the length of the idealized profiling timeline.
	ExecCycles memtech.Cycles
	// TotalDataReads/Writes aggregate over data-space accesses.
	TotalDataReads, TotalDataWrites int

	prog *program.Program
}

// Program returns the profiled program image.
func (p *Profile) Program() *program.Program { return p.prog }

// ByName returns the profile of the named block.
func (p *Profile) ByName(name string) (BlockProfile, error) {
	id, ok := p.prog.Lookup(name)
	if !ok {
		return BlockProfile{}, fmt.Errorf("%w: %q", program.ErrUnknownBlock, name)
	}
	return p.Blocks[id], nil
}

// DataBlocks returns the profiles of data-space blocks (data + stack) in
// block order.
func (p *Profile) DataBlocks() []BlockProfile {
	var out []BlockProfile
	for _, b := range p.Blocks {
		if b.Block.Kind.IsData() {
			out = append(out, b)
		}
	}
	return out
}

// CodeBlocks returns the profiles of code blocks in block order.
func (p *Profile) CodeBlocks() []BlockProfile {
	var out []BlockProfile
	for _, b := range p.Blocks {
		if b.Block.Kind == program.CodeBlock {
			out = append(out, b)
		}
	}
	return out
}

// ErrUnresolvedAccess is returned when a trace access falls outside every
// program block.
var ErrUnresolvedAccess = errors.New("profile: access outside all program blocks")

// Run profiles the trace against the program image. The idealized
// timeline charges each access its think cycles plus one cycle per
// touched word (an ideal single-cycle SPM), so life-times are measured in
// the same units as the paper's profiler.
func Run(prog *program.Program, s trace.Stream) (*Profile, error) {
	return RunContext(nil, prog, s)
}

// ErrCanceled wraps the context error when profiling is stopped by
// cancellation or deadline; errors.Is sees through it to
// context.Canceled / context.DeadlineExceeded.
var ErrCanceled = errors.New("profile: canceled")

// RunContext is Run with cooperative cancellation: the trace loop polls
// ctx once per batch of trace.BatchLen events (as the simulator does)
// and abandons profiling with an error wrapping ErrCanceled once it is
// done. A nil ctx never cancels.
func RunContext(ctx context.Context, prog *program.Program, s trace.Stream) (*Profile, error) {
	p := &Profile{
		prog:   prog,
		Blocks: make([]BlockProfile, prog.NumBlocks()),
	}
	for i, b := range prog.Blocks() {
		p.Blocks[i].Block = b
	}

	var now memtech.Cycles
	type active struct {
		id    program.BlockID
		start memtech.Cycles
		live  bool
	}
	var curCode, curData active
	stackDepth := 0
	frames := make([]int, 0, 16)

	closeActivation := func(a *active) {
		if !a.live {
			return
		}
		bp := &p.Blocks[a.id]
		bp.Lifetime += now - a.start
		a.live = false
	}

	var events uint64
	var codeMemo, dataMemo program.BlockMemo
	buf := make([]trace.Event, trace.BatchLen)
	for {
		batch := trace.ReadBatch(s, buf)
		if len(batch) == 0 {
			break
		}
		events += uint64(len(batch))
		for i := range batch {
			e := &batch[i]
			switch e.Kind {
			case trace.KindCall:
				now++
				stackDepth += int(e.StackBytes)
				frames = append(frames, int(e.StackBytes))
				if curCode.live {
					bp := &p.Blocks[curCode.id]
					bp.StackCalls++
					if stackDepth > bp.MaxStackBytes {
						bp.MaxStackBytes = stackDepth
					}
				}
			case trace.KindReturn:
				now++
				if n := len(frames); n > 0 {
					stackDepth -= frames[n-1]
					frames = frames[:n-1]
				}
			case trace.KindAccess:
				a := &e.Access
				cur, memo := &curData, &dataMemo
				if a.Space == trace.Code {
					cur, memo = &curCode, &codeMemo
				}
				id, found := memo.Find(prog, a.Addr)
				if !found {
					return nil, fmt.Errorf("%w: addr %#x", ErrUnresolvedAccess, a.Addr)
				}
				now += memtech.Cycles(a.Think)
				if !cur.live || cur.id != id {
					closeActivation(cur)
					*cur = active{id: id, start: now, live: true}
					p.Blocks[id].References++
				}
				words := memtech.WordsIn(int(a.Size))
				now += memtech.Cycles(words)
				bp := &p.Blocks[id]
				if bp.References == 1 && bp.Reads+bp.Writes == 0 {
					bp.FirstCycle = now
				}
				bp.LastCycle = now
				if a.Op == trace.Read {
					bp.Reads++
					bp.ReadWords += words
					if a.Space == trace.Data {
						p.TotalDataReads++
					}
				} else {
					bp.Writes++
					bp.WriteWords += words
					if a.Space == trace.Data {
						p.TotalDataWrites++
					}
					if bp.wordWrites == nil {
						bp.wordWrites = make([]int, memtech.WordsIn(bp.Block.Size))
					}
					first := int(a.Addr-bp.Block.Addr) / memtech.WordBytes
					for w := 0; w < words && first+w < len(bp.wordWrites); w++ {
						bp.wordWrites[first+w]++
						if bp.wordWrites[first+w] > bp.MaxWordWrites {
							bp.MaxWordWrites = bp.wordWrites[first+w]
						}
					}
				}
			default:
				return nil, fmt.Errorf("profile: unknown event kind %v", e.Kind)
			}
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("%w after %d events: %w", ErrCanceled, events, err)
			}
		}
	}
	closeActivation(&curCode)
	closeActivation(&curData)
	p.ExecCycles = now
	return p, nil
}

// ACE returns the block's architecturally-correct-execution time
// fraction: the live span over the whole execution, the quantity the AVF
// equations (2)-(3) weight by the per-region SDC/DUE probabilities.
func (p *Profile) ACE(id program.BlockID) float64 {
	if p.ExecCycles == 0 || int(id) >= len(p.Blocks) || id < 0 {
		return 0
	}
	return float64(p.Blocks[id].Span()) / float64(p.ExecCycles)
}
