// Package program models an application as the mapping unit FTSPM works
// with: a set of named blocks — code blocks (functions), data blocks
// (arrays, globals), and the stack — each with a size and a fixed base
// address in the off-chip memory image. The profiler attributes trace
// accesses to blocks through this image, and the MDA mapping algorithm
// decides, per block, which SPM region (if any) it occupies.
package program

import (
	"errors"
	"fmt"
	"sort"
)

// BlockKind classifies a program block.
type BlockKind int

// Block kinds. The paper's profiler distinguishes instruction blocks
// (functions) from data blocks (arrays) and the stack (Table I).
const (
	CodeBlock BlockKind = iota + 1
	DataBlock
	StackBlock
)

// String implements fmt.Stringer.
func (k BlockKind) String() string {
	switch k {
	case CodeBlock:
		return "code"
	case DataBlock:
		return "data"
	case StackBlock:
		return "stack"
	default:
		return fmt.Sprintf("BlockKind(%d)", int(k))
	}
}

// Valid reports whether k is a known kind.
func (k BlockKind) Valid() bool {
	return k == CodeBlock || k == DataBlock || k == StackBlock
}

// IsData reports whether blocks of this kind live in the data address
// space (data and stack blocks do; code blocks are fetched).
func (k BlockKind) IsData() bool { return k == DataBlock || k == StackBlock }

// BlockID identifies a block within its program. IDs are dense indices
// assigned in AddBlock order, starting at 0.
type BlockID int

// Block is one mapping unit.
type Block struct {
	// ID is the block's identity within its program.
	ID BlockID
	// Name is unique within the program (e.g. "Mul", "Array1", "Stack").
	Name string
	// Kind classifies the block.
	Kind BlockKind
	// Size is the block footprint in bytes.
	Size int
	// Addr is the base address of the block in the off-chip image.
	Addr uint32
}

// End returns the first address past the block.
func (b Block) End() uint32 { return b.Addr + uint32(b.Size) }

// Contains reports whether addr falls inside the block.
func (b Block) Contains(addr uint32) bool { return addr >= b.Addr && addr < b.End() }

// String implements fmt.Stringer.
func (b Block) String() string {
	return fmt.Sprintf("%s[%s %dB @%#x]", b.Name, b.Kind, b.Size, b.Addr)
}

// Address-space layout of the off-chip image: code and data live in
// disjoint windows so a raw address identifies its space, mirroring the
// separate I/D hierarchies of Table IV.
const (
	codeBase  uint32 = 0x0010_0000
	dataBase  uint32 = 0x4000_0000
	blockAlig        = 64 // block base alignment, bytes
)

// Errors returned by Program methods.
var (
	ErrDuplicateBlock = errors.New("program: duplicate block name")
	ErrBadBlockSize   = errors.New("program: block size must be positive")
	ErrBadBlockKind   = errors.New("program: unknown block kind")
	ErrUnknownBlock   = errors.New("program: unknown block")
)

// Program is an application image: an ordered set of blocks with assigned
// addresses.
type Program struct {
	name     string
	blocks   []Block
	byName   map[string]BlockID
	nextCode uint32
	nextData uint32
	// Flat address index for FindAddr, rebuilt lazily: sortedAddrs
	// holds block base addresses in ascending order and sortedIDs the
	// matching block IDs, so the lookup binary-searches one dense
	// uint32 slice with no per-probe indirection.
	sortedAddrs []uint32
	sortedIDs   []BlockID
}

// New returns an empty program.
func New(name string) *Program {
	return &Program{
		name:     name,
		byName:   make(map[string]BlockID),
		nextCode: codeBase,
		nextData: dataBase,
	}
}

// Name returns the program name.
func (p *Program) Name() string { return p.name }

// NumBlocks returns the number of blocks.
func (p *Program) NumBlocks() int { return len(p.blocks) }

// AddBlock appends a block of the given kind and size, assigns its
// address in the off-chip image, and returns its ID.
func (p *Program) AddBlock(name string, kind BlockKind, size int) (BlockID, error) {
	if !kind.Valid() {
		return 0, fmt.Errorf("%w: %d", ErrBadBlockKind, int(kind))
	}
	if size <= 0 {
		return 0, fmt.Errorf("%w: %q has size %d", ErrBadBlockSize, name, size)
	}
	if _, dup := p.byName[name]; dup {
		return 0, fmt.Errorf("%w: %q", ErrDuplicateBlock, name)
	}
	id := BlockID(len(p.blocks))
	b := Block{ID: id, Name: name, Kind: kind, Size: size}
	if kind == CodeBlock {
		b.Addr = p.nextCode
		p.nextCode += align(uint32(size))
	} else {
		b.Addr = p.nextData
		p.nextData += align(uint32(size))
	}
	p.blocks = append(p.blocks, b)
	p.byName[name] = id
	p.sortedAddrs, p.sortedIDs = nil, nil
	return id, nil
}

// MustAddBlock is AddBlock for statically-valid arguments; it panics on
// error and exists for the fixed workload definitions in this module.
func (p *Program) MustAddBlock(name string, kind BlockKind, size int) BlockID {
	id, err := p.AddBlock(name, kind, size)
	if err != nil {
		panic(err)
	}
	return id
}

func align(n uint32) uint32 {
	return (n + blockAlig - 1) &^ uint32(blockAlig-1)
}

// Block returns the block with the given ID.
func (p *Program) Block(id BlockID) (Block, error) {
	if id < 0 || int(id) >= len(p.blocks) {
		return Block{}, fmt.Errorf("%w: id %d", ErrUnknownBlock, id)
	}
	return p.blocks[id], nil
}

// Blocks returns a copy of all blocks in ID order.
func (p *Program) Blocks() []Block {
	out := make([]Block, len(p.blocks))
	copy(out, p.blocks)
	return out
}

// Lookup resolves a block name.
func (p *Program) Lookup(name string) (BlockID, bool) {
	id, ok := p.byName[name]
	return id, ok
}

// AddrOf returns the image address of the given offset into a block.
func (p *Program) AddrOf(id BlockID, offset int) (uint32, error) {
	b, err := p.Block(id)
	if err != nil {
		return 0, err
	}
	if offset < 0 || offset >= b.Size {
		return 0, fmt.Errorf("%w: offset %d outside %s", ErrUnknownBlock, offset, b)
	}
	return b.Addr + uint32(offset), nil
}

// FindAddr resolves an image address to the block containing it.
func (p *Program) FindAddr(addr uint32) (BlockID, bool) {
	if p.sortedAddrs == nil {
		ids := make([]BlockID, len(p.blocks))
		for i := range p.blocks {
			ids[i] = BlockID(i)
		}
		// Addresses are unique by construction; the ID tie-break keeps
		// the order fully determined regardless.
		sort.Slice(ids, func(i, j int) bool {
			ai, aj := p.blocks[ids[i]].Addr, p.blocks[ids[j]].Addr
			if ai != aj {
				return ai < aj
			}
			return ids[i] < ids[j]
		})
		addrs := make([]uint32, len(ids))
		for i, id := range ids {
			addrs[i] = p.blocks[id].Addr
		}
		p.sortedAddrs, p.sortedIDs = addrs, ids
	}
	// Binary search the flat address slice for the last base <= addr.
	lo, hi := 0, len(p.sortedAddrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.sortedAddrs[mid] <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, false
	}
	id := p.sortedIDs[lo-1]
	if p.blocks[id].Contains(addr) {
		return id, true
	}
	return 0, false
}

// BlockMemo remembers the last block an address resolved to, so a run
// of accesses inside one block skips FindAddr's binary search. Its zero
// value is empty. Adding a block never moves an existing one, so a memo
// used with one program never goes stale.
type BlockMemo struct {
	base, size uint32
	id         BlockID
}

// Find resolves addr exactly as p.FindAddr does, trying the memoized
// block first and memoizing the block it finds.
func (m *BlockMemo) Find(p *Program, addr uint32) (BlockID, bool) {
	if addr-m.base < m.size {
		return m.id, true
	}
	id, ok := p.FindAddr(addr)
	if ok {
		b := &p.blocks[id]
		m.base, m.size, m.id = b.Addr, uint32(b.Size), id
	}
	return id, ok
}

// TotalSize returns the summed footprint in bytes of blocks matching the
// filter (nil matches all).
func (p *Program) TotalSize(match func(Block) bool) int {
	total := 0
	for _, b := range p.blocks {
		if match == nil || match(b) {
			total += b.Size
		}
	}
	return total
}

// Refine returns a copy of the program in which the named block is split
// into `parts` word-aligned sub-blocks covering exactly the parent's
// address range (named "X#0".."X#n-1"). Traces recorded against the
// original image stay valid — every address still resolves, now to a
// sub-block — so refinement gives the mapping algorithm finer units
// without regenerating workloads. This is the coarse/fine block
// granularity knob of the SPM-mapping literature ([15] §II).
func (p *Program) Refine(name string, parts int) (*Program, error) {
	id, ok := p.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBlock, name)
	}
	if parts < 2 {
		return nil, fmt.Errorf("%w: refine needs >= 2 parts, got %d", ErrBadBlockSize, parts)
	}
	target := p.blocks[id]
	words := (target.Size + 3) / 4
	if parts > words {
		return nil, fmt.Errorf("%w: %q has only %d words for %d parts",
			ErrBadBlockSize, name, words, parts)
	}

	out := &Program{
		name:     p.name,
		byName:   make(map[string]BlockID),
		nextCode: p.nextCode,
		nextData: p.nextData,
	}
	appendBlock := func(b Block) {
		b.ID = BlockID(len(out.blocks))
		out.blocks = append(out.blocks, b)
		out.byName[b.Name] = b.ID
	}
	for _, b := range p.blocks {
		if b.ID != id {
			appendBlock(b)
			continue
		}
		per := (words / parts) * 4 // bytes per sub-block, word-aligned
		off := 0
		for i := 0; i < parts; i++ {
			size := per
			if i == parts-1 {
				size = target.Size - off
			}
			appendBlock(Block{
				Name: fmt.Sprintf("%s#%d", target.Name, i),
				Kind: target.Kind,
				Size: size,
				Addr: target.Addr + uint32(off),
			})
			off += size
		}
	}
	return out, nil
}
