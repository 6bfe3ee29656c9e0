// Package workloads is the reproduction's substitute for the MiBench
// benchmark suite [28] and for the Section IV case-study program: a set
// of deterministic workload generators, each producing a program image
// (blocks with sizes) and a memory-access trace whose block-level profile
// has the same character — read/write mix, activation structure, stack
// behaviour, hot/cold blocks — as the program it stands in for.
//
// The mapping algorithm and every evaluated metric consume only the
// block-level profile and the access stream, so reproducing those shapes
// preserves the behaviour the paper's evaluation depends on (see
// DESIGN.md §2).
package workloads

import (
	"math/rand"

	"ftspm/internal/program"
	"ftspm/internal/trace"
)

// pattern describes how a workload touches one data block.
type pattern struct {
	// block names the data block.
	block string
	// weight is the relative share of data-activation picks.
	weight float64
	// readFrac is the probability an access within an activation is a
	// read.
	readFrac float64
	// runLen is the mean number of accesses per activation (a maximal
	// burst of accesses to this block before the program moves on); the
	// profiler counts each activation as one block reference.
	runLen int
	// burstWords is the number of 32-bit words touched per access event.
	burstWords int
	// sequential walks offsets linearly within the block when true,
	// uniformly at random when false.
	sequential bool
}

// codeUse describes how a workload fetches one code block.
type codeUse struct {
	// block names the code block.
	block string
	// weight is the relative share of instruction fetches.
	weight float64
	// frameBytes is the stack frame pushed when the block is entered
	// (0 = leaf code entered without a call marker).
	frameBytes int
	// stackTouch is the number of stack words spilled on entry and
	// reloaded on exit.
	stackTouch int
}

// segment is one phase of a workload's execution.
type segment struct {
	// share is the fraction of the workload's activations spent in this
	// segment.
	share float64
	// patterns are the data patterns active in the segment.
	patterns []pattern
	// code are the code blocks executing in the segment.
	code []codeUse
	// callEvery issues a call/return pair (with stack traffic) once per
	// this many activations; 0 disables calls in the segment.
	callEvery int
	// think is the mean compute-cycle gap in front of each access.
	think int
	// fetchEvery emits one instruction-fetch burst per this many data
	// accesses (models the I-side bandwidth relative to the D-side).
	fetchEvery int
	// fetchWords is the length of one instruction-fetch burst in words.
	fetchWords int
}

// spec declares a complete synthetic workload.
type spec struct {
	name string
	desc string
	// blocks lists every program block (code, data, stack).
	blocks []blockSpec
	// stack names the stack block used by call markers.
	stack string
	// segments are executed in order.
	segments []segment
	// activations is the total activation count at scale 1.0.
	activations int
	// seed fixes the generator's randomness.
	seed int64
}

type blockSpec struct {
	name string
	kind program.BlockKind
	size int
}

// buildProgram materializes the spec's program image.
func (s spec) buildProgram() *program.Program {
	p := program.New(s.name)
	for _, b := range s.blocks {
		p.MustAddBlock(b.name, b.kind, b.size)
	}
	return p
}

// generate materializes the spec's trace at the given scale. Scale
// multiplies the activation count; 1.0 is the reference length. The
// streaming generator runs its activations straight into one output
// slice presized from the segment activation counts, so the two paths
// emit identical event sequences by construction.
func (s spec) generate(p *program.Program, scale float64) []trace.Event {
	st := s.stream(p, scale)
	st.g.events = make([]trace.Event, 0, st.sizeHint())
	for st.advance() {
	}
	return st.g.events
}

// rpattern, rcodeUse, and rsegment are spec shapes with the block names
// resolved to IDs once at stream construction, so the per-event hot
// path indexes dense slices instead of hashing names.
type rpattern struct {
	pattern
	id program.BlockID
}

type rcodeUse struct {
	codeUse
	id program.BlockID
}

type rsegment struct {
	seg      segment // scalar knobs: callEvery, think, fetchEvery, fetchWords
	patterns []rpattern
	code     []rcodeUse
}

// stream returns a pull-based generator over the spec's trace at the
// given scale. Events are produced one activation at a time into a
// small reused buffer, so consumers never hold the whole trace; the
// generator is seeded, so rebuilding the stream replays the identical
// sequence.
func (s spec) stream(p *program.Program, scale float64) *genStream {
	if scale <= 0 {
		scale = 1.0
	}
	total := int(float64(s.activations) * scale)
	if total < 1 {
		total = 1
	}
	counts := make([]int, len(s.segments))
	rsegs := make([]rsegment, len(s.segments))
	mustID := func(name string) program.BlockID {
		id, ok := p.Lookup(name)
		if !ok {
			panic("workloads: spec references unknown block " + name)
		}
		return id
	}
	for i, seg := range s.segments {
		n := int(float64(total) * seg.share)
		if n < 1 {
			n = 1
		}
		counts[i] = n
		rs := rsegment{seg: seg}
		for _, pt := range seg.patterns {
			rs.patterns = append(rs.patterns, rpattern{pattern: pt, id: mustID(pt.block)})
		}
		for _, c := range seg.code {
			rs.code = append(rs.code, rcodeUse{codeUse: c, id: mustID(c.block)})
		}
		rsegs[i] = rs
	}
	g := &generator{
		blocks: p.Blocks(),
		rng:    rand.New(rand.NewSource(s.seed)),
		cursor: make([]int, p.NumBlocks()),
	}
	// A spec without a (known) stack block simply emits no call frames,
	// matching the lookup-and-skip of earlier versions.
	if id, ok := p.Lookup(s.stack); ok {
		g.stackID, g.hasStack = id, true
	}
	return &genStream{g: g, segments: rsegs, counts: counts}
}

// genStream adapts the generator to the trace.Stream pull interface:
// each refill runs exactly one activation, so the buffer stays a few
// hundred events regardless of trace length.
type genStream struct {
	g        *generator
	segments []rsegment
	counts   []int
	segIdx   int
	actIdx   int
	pos      int
}

var (
	_ trace.Stream      = (*genStream)(nil)
	_ trace.BatchReader = (*genStream)(nil)
)

// Next implements trace.Stream.
func (st *genStream) Next() (trace.Event, bool) {
	if !st.fill() {
		return trace.Event{}, false
	}
	e := st.g.events[st.pos]
	st.pos++
	return e, true
}

// ReadBatch implements trace.BatchReader: it copies whole runs of the
// activation buffer into buf.
func (st *genStream) ReadBatch(buf []trace.Event) []trace.Event {
	n := 0
	for n < len(buf) && st.fill() {
		c := copy(buf[n:], st.g.events[st.pos:])
		st.pos += c
		n += c
	}
	return buf[:n]
}

// fill refills the consumed activation buffer, reporting false once
// every segment is exhausted.
func (st *genStream) fill() bool {
	for st.pos >= len(st.g.events) {
		st.g.events = st.g.events[:0]
		st.pos = 0
		if !st.advance() {
			return false
		}
	}
	return true
}

// advance appends the next activation's events to the generator's
// buffer, reporting false once every segment is exhausted.
func (st *genStream) advance() bool {
	if st.segIdx >= len(st.segments) {
		return false
	}
	st.g.runActivation(st.segments[st.segIdx], st.actIdx)
	st.actIdx++
	if st.actIdx >= st.counts[st.segIdx] {
		st.segIdx++
		st.actIdx = 0
	}
	return true
}

// sizeHint estimates the trace length of a fresh stream in events:
// each segment's activation count times its expected events per
// activation (call frame, fetch bursts, data run), plus a small margin
// so the random run lengths rarely outgrow the estimate.
func (st *genStream) sizeHint() int {
	total := 0.0
	for i, rs := range st.segments {
		seg := rs.seg
		var per float64
		if len(rs.patterns) > 0 {
			var w, run float64
			for _, pt := range rs.patterns {
				w += pt.weight
				run += pt.weight * (float64(pt.runLen) + 0.5)
			}
			if w > 0 {
				per = run / w
			}
		}
		if len(rs.code) > 0 {
			fetches := 1.0 // the entry burst
			if seg.fetchEvery > 0 {
				fetches += per / float64(seg.fetchEvery)
			}
			per += fetches
			if seg.callEvery > 0 && st.g.hasStack {
				var frame float64
				for _, c := range rs.code {
					if c.frameBytes > 0 {
						frame += float64(2 + 2*c.stackTouch)
					}
				}
				per += frame / float64(len(rs.code)) / float64(seg.callEvery)
			}
		}
		total += per * float64(st.counts[i])
	}
	return int(total*1.05) + 64
}

// generator emits trace events for a spec.
type generator struct {
	blocks []program.Block // dense BlockID → block descriptor
	rng    *rand.Rand
	events []trace.Event

	// stackID names the stack block used by call markers; hasStack is
	// false when the spec's stack block does not exist.
	stackID  program.BlockID
	hasStack bool
	// cursor tracks the sequential offset per block, indexed by BlockID.
	cursor []int
	// sinceFetch counts data accesses since the last instruction fetch.
	sinceFetch int
	// stackDepth is the current call-stack depth in bytes (frames are
	// addressed by depth, like a real descending stack).
	stackDepth int
}

// runActivation emits the events of one activation: the periodic
// call/return pair, the entry fetch burst, and the data run.
func (g *generator) runActivation(seg rsegment, act int) {
	totalW := 0.0
	for _, pt := range seg.patterns {
		totalW += pt.weight
	}
	if seg.seg.callEvery > 0 && act%seg.seg.callEvery == 0 {
		g.emitCall(seg)
	}
	pt := g.pickPattern(seg.patterns, totalW)
	g.fetchBurst(seg) // entering the activation executes code
	runLen := 1 + g.rng.Intn(2*pt.runLen)
	for i := 0; i < runLen; i++ {
		g.emitData(pt, seg)
	}
}

func (g *generator) pickPattern(patterns []rpattern, totalW float64) rpattern {
	u := g.rng.Float64() * totalW
	for _, pt := range patterns {
		if u < pt.weight {
			return pt
		}
		u -= pt.weight
	}
	return patterns[len(patterns)-1]
}

// emitData issues one access event according to the pattern.
func (g *generator) emitData(pt rpattern, seg rsegment) {
	b := &g.blocks[pt.id]
	size := pt.burstWords * 4
	if size <= 0 {
		size = 4
	}
	if size > b.Size {
		size = b.Size
	}
	var off int
	if pt.sequential {
		off = g.cursor[pt.id]
		g.cursor[pt.id] = (off + size) % maxOffset(b.Size, size)
	} else {
		off = g.rng.Intn(maxOffset(b.Size, size))
		off &^= 3 // word-align
	}
	op := trace.Write
	if g.rng.Float64() < pt.readFrac {
		op = trace.Read
	}
	think := 0
	if seg.seg.think > 0 {
		think = g.rng.Intn(2*seg.seg.think + 1)
	}
	g.events = append(g.events, trace.AccessEvent(trace.Access{
		Op: op, Space: trace.Data,
		Addr: b.Addr + uint32(off), Size: int32(size), Think: int32(think),
	}))
	g.sinceFetch++
	if seg.seg.fetchEvery > 0 && g.sinceFetch >= seg.seg.fetchEvery {
		g.sinceFetch = 0
		g.fetchBurst(seg)
	}
}

func maxOffset(blockSize, accessSize int) int {
	m := blockSize - accessSize + 1
	if m < 1 {
		return 1
	}
	return m
}

// fetchBurst emits one instruction-fetch burst from a weighted code
// block.
func (g *generator) fetchBurst(seg rsegment) {
	if len(seg.code) == 0 {
		return
	}
	totalW := 0.0
	for _, c := range seg.code {
		totalW += c.weight
	}
	u := g.rng.Float64() * totalW
	use := seg.code[len(seg.code)-1]
	for _, c := range seg.code {
		if u < c.weight {
			use = c
			break
		}
		u -= c.weight
	}
	b := &g.blocks[use.id]
	words := seg.seg.fetchWords
	if words <= 0 {
		words = 8
	}
	size := words * 4
	if size > b.Size {
		size = b.Size
	}
	off := g.cursor[use.id]
	g.cursor[use.id] = (off + size) % maxOffset(b.Size, size)
	g.events = append(g.events, trace.AccessEvent(trace.Access{
		Op: trace.Read, Space: trace.Code,
		Addr: b.Addr + uint32(off), Size: int32(size), Think: 0,
	}))
}

// emitCall pushes a frame: call marker, spill writes to the stack block,
// and the matching return with reload reads. Frames are addressed by the
// current call depth, exactly as a real stack: successive calls at the
// same nesting level rewrite the same words, which is what makes the
// stack the write-endurance hot spot of the paper's evaluation (Table
// III's pure-STT lifetime collapses because of cells like these).
func (g *generator) emitCall(seg rsegment) {
	use := seg.code[g.rng.Intn(len(seg.code))]
	if use.frameBytes == 0 {
		return
	}
	if !g.hasStack {
		return
	}
	b := &g.blocks[g.stackID]
	g.events = append(g.events, trace.CallEvent(int32(use.frameBytes)))
	touch := use.stackTouch
	if touch*4 > b.Size {
		touch = b.Size / 4
	}
	base := g.stackDepth % maxOffset(b.Size, 4)
	g.stackDepth += use.frameBytes
	for i := 0; i < touch; i++ {
		off := (base + i*4) % maxOffset(b.Size, 4)
		g.events = append(g.events, trace.AccessEvent(trace.Access{
			Op: trace.Write, Space: trace.Data,
			Addr: b.Addr + uint32(off), Size: 4, Think: 0,
		}))
	}
	for i := 0; i < touch; i++ {
		off := (base + i*4) % maxOffset(b.Size, 4)
		g.events = append(g.events, trace.AccessEvent(trace.Access{
			Op: trace.Read, Space: trace.Data,
			Addr: b.Addr + uint32(off), Size: 4, Think: 0,
		}))
	}
	g.stackDepth -= use.frameBytes
	g.events = append(g.events, trace.ReturnEvent())
}
