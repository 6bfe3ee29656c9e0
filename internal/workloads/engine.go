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
	"ftspm/internal/program"
	"ftspm/internal/rng"
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

// rpattern, rcodeUse, and rsegment are spec shapes resolved once at
// stream construction: block names become IDs, and every size, modulus,
// weight total and Intn bound the per-event path needs is precomputed,
// so that path indexes dense slices and does no division it can avoid.
type rpattern struct {
	pattern
	id   program.BlockID
	addr uint32
	size int // bytes per access
	// span is the number of valid start offsets, maxOffset(block, size):
	// the sequential cursor's modulus and the random offset's bound.
	span    int
	offset  rng.Bound // Intn(span)
	runDraw rng.Bound // Intn(2*runLen)
}

type rcodeUse struct {
	codeUse
	id    program.BlockID
	addr  uint32
	fetch int // bytes per fetch burst
	span  int // maxOffset(block, fetch)
	// frame is the whole call of this code block: the call marker, the
	// spill writes, the reloads and the return (nil for leaf code or
	// without a stack block).
	frame []trace.Event
}

type rsegment struct {
	seg      segment // scalar knobs: callEvery, think, fetchEvery
	patterns []rpattern
	code     []rcodeUse
	// patternW and codeW are the weight totals of the pick loops,
	// summed in spec order as the loops subtract them.
	patternW, codeW float64
	think           rng.Bound // Intn(2*think+1), when think > 0
	callee          rng.Bound // Intn(len(code)), when calls are made
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
	blocks := p.Blocks()
	mustID := func(name string) program.BlockID {
		id, ok := p.Lookup(name)
		if !ok {
			panic("workloads: spec references unknown block " + name)
		}
		return id
	}
	// A spec without a (known) stack block simply emits no call frames,
	// matching the lookup-and-skip of earlier versions.
	stack, hasStack := p.Lookup(s.stack)
	counts := make([]int, len(s.segments))
	rsegs := make([]rsegment, len(s.segments))
	for i, seg := range s.segments {
		n := int(float64(total) * seg.share)
		if n < 1 {
			n = 1
		}
		counts[i] = n
		rs := &rsegs[i]
		rs.seg = seg
		for _, pt := range seg.patterns {
			id := mustID(pt.block)
			b := blocks[id]
			size := pt.burstWords * 4
			if size <= 0 {
				size = 4
			}
			size = min(size, b.Size)
			span := maxOffset(b.Size, size)
			rs.patterns = append(rs.patterns, rpattern{
				pattern: pt, id: id, addr: b.Addr, size: size, span: span,
				offset: rng.NewBound(span), runDraw: rng.NewBound(2 * pt.runLen),
			})
			rs.patternW += pt.weight
		}
		words := seg.fetchWords
		if words <= 0 {
			words = 8
		}
		for _, c := range seg.code {
			id := mustID(c.block)
			b := blocks[id]
			fetch := min(words*4, b.Size)
			rc := rcodeUse{codeUse: c, id: id, addr: b.Addr, fetch: fetch, span: maxOffset(b.Size, fetch)}
			if c.frameBytes != 0 && hasStack {
				rc.frame = callFrame(blocks[stack], c)
			}
			rs.code = append(rs.code, rc)
			rs.codeW += c.weight
		}
		if seg.think > 0 {
			rs.think = rng.NewBound(2*seg.think + 1)
		}
		if seg.callEvery > 0 {
			rs.callee = rng.NewBound(len(rs.code))
		}
	}
	g := &generator{
		rng:    rng.New(s.seed),
		cursor: make([]int, p.NumBlocks()),
	}
	return &genStream{g: g, segments: rsegs, counts: counts}
}

// callFrame builds the events of one call of c: the call marker, c's
// spill writes to the stack block, the matching reloads, and the
// return. Calls never nest in a generated trace, so every frame starts
// at the bottom of the stack: successive calls rewrite the same words,
// which is what makes the stack the write-endurance hot spot of the
// paper's evaluation (Table III's pure-STT lifetime collapses because
// of cells like these).
func callFrame(stack program.Block, c codeUse) []trace.Event {
	touch := c.stackTouch
	if touch*4 > stack.Size {
		touch = stack.Size / 4
	}
	span := maxOffset(stack.Size, 4)
	frame := make([]trace.Event, 0, 2+2*touch)
	frame = append(frame, trace.CallEvent(int32(c.frameBytes)))
	for _, op := range []trace.Op{trace.Write, trace.Read} {
		for i := 0; i < touch; i++ {
			frame = append(frame, trace.AccessEvent(trace.Access{
				Op: op, Space: trace.Data,
				Addr: stack.Addr + uint32(i*4%span), Size: 4,
			}))
		}
	}
	return append(frame, trace.ReturnEvent())
}

// genStream adapts the generator to the trace.Stream pull interface:
// each refill runs whole activations, so the buffer stays a few hundred
// events regardless of trace length.
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
	for st.pos >= len(st.g.events) {
		st.g.events = st.g.events[:0]
		st.pos = 0
		if !st.advance() {
			return trace.Event{}, false
		}
	}
	e := st.g.events[st.pos]
	st.pos++
	return e, true
}

// ReadBatch implements trace.BatchReader: it runs activations until
// len(buf) events are buffered, or the trace ends, and hands out a
// window of the generator's own buffer. Only the unread tail of the
// previous batch moves, to the front of the buffer, before a refill.
func (st *genStream) ReadBatch(buf []trace.Event) []trace.Event {
	ev := st.g.events
	if len(ev)-st.pos < len(buf) && st.segIdx < len(st.segments) {
		st.g.events = ev[:copy(ev, ev[st.pos:])]
		st.pos = 0
		for len(st.g.events) < len(buf) && st.advance() {
		}
		ev = st.g.events
	}
	n := min(len(buf), len(ev)-st.pos)
	w := ev[st.pos : st.pos+n : st.pos+n]
	st.pos += n
	return w
}

// advance appends the next activation's events to the generator's
// buffer, reporting false once every segment is exhausted.
func (st *genStream) advance() bool {
	if st.segIdx >= len(st.segments) {
		return false
	}
	st.g.runActivation(&st.segments[st.segIdx], st.actIdx)
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
			if seg.callEvery > 0 {
				var frame float64
				for _, c := range rs.code {
					frame += float64(len(c.frame))
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
	rng    *rng.Source
	events []trace.Event

	// cursor tracks the sequential offset per block, indexed by BlockID.
	cursor []int
	// sinceFetch counts data accesses since the last instruction fetch.
	sinceFetch int
}

// runActivation emits the events of one activation: the periodic
// call/return pair, the entry fetch burst, and the data run.
func (g *generator) runActivation(seg *rsegment, act int) {
	if seg.seg.callEvery > 0 && act%seg.seg.callEvery == 0 {
		g.events = append(g.events, seg.code[g.rng.Bounded(seg.callee)].frame...)
	}
	pt := g.pickPattern(seg)
	g.fetchBurst(seg) // entering the activation executes code
	runLen := 1 + g.rng.Bounded(pt.runDraw)
	for i := 0; i < runLen; i++ {
		g.emitData(pt, seg)
	}
}

func (g *generator) pickPattern(seg *rsegment) *rpattern {
	u := g.rng.Float64() * seg.patternW
	for i := range seg.patterns {
		pt := &seg.patterns[i]
		if u < pt.weight {
			return pt
		}
		u -= pt.weight
	}
	return &seg.patterns[len(seg.patterns)-1]
}

// emitData issues one access event according to the pattern.
func (g *generator) emitData(pt *rpattern, seg *rsegment) {
	var off int
	if pt.sequential {
		off = g.cursor[pt.id]
		g.cursor[pt.id] = wrap(off+pt.size, pt.span)
	} else {
		off = g.rng.Bounded(pt.offset)
		off &^= 3 // word-align
	}
	op := trace.Write
	if g.rng.Float64() < pt.readFrac {
		op = trace.Read
	}
	think := 0
	if seg.seg.think > 0 {
		think = g.rng.Bounded(seg.think)
	}
	g.events = append(g.events, trace.AccessEvent(trace.Access{
		Op: op, Space: trace.Data,
		Addr: pt.addr + uint32(off), Size: int32(pt.size), Think: int32(think),
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

// wrap is x % m for x >= 0, without the division when x < m already.
func wrap(x, m int) int {
	if x >= m {
		x %= m
	}
	return x
}

// fetchBurst emits one instruction-fetch burst from a weighted code
// block.
func (g *generator) fetchBurst(seg *rsegment) {
	if len(seg.code) == 0 {
		return
	}
	u := g.rng.Float64() * seg.codeW
	use := &seg.code[len(seg.code)-1]
	for i := range seg.code {
		c := &seg.code[i]
		if u < c.weight {
			use = c
			break
		}
		u -= c.weight
	}
	off := g.cursor[use.id]
	g.cursor[use.id] = wrap(off+use.fetch, use.span)
	g.events = append(g.events, trace.AccessEvent(trace.Access{
		Op: trace.Read, Space: trace.Code,
		Addr: use.addr + uint32(off), Size: int32(use.fetch),
	}))
}
