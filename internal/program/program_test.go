package program

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildSample(t *testing.T) *Program {
	t.Helper()
	p := New("sample")
	mustAdd := func(name string, kind BlockKind, size int) {
		if _, err := p.AddBlock(name, kind, size); err != nil {
			t.Fatalf("AddBlock(%s): %v", name, err)
		}
	}
	mustAdd("Main", CodeBlock, 20*1024)
	mustAdd("Mul", CodeBlock, 1024)
	mustAdd("Array1", DataBlock, 2048)
	mustAdd("Array2", DataBlock, 2048)
	mustAdd("Stack", StackBlock, 512)
	return p
}

func TestAddBlockLayout(t *testing.T) {
	p := buildSample(t)
	if p.NumBlocks() != 5 {
		t.Fatalf("NumBlocks = %d", p.NumBlocks())
	}
	if p.Name() != "sample" {
		t.Errorf("Name = %q", p.Name())
	}
	blocks := p.Blocks()
	// Code and data live in disjoint windows.
	for _, b := range blocks {
		if b.Kind == CodeBlock && b.Addr >= 0x4000_0000 {
			t.Errorf("code block %s in data window", b)
		}
		if b.Kind.IsData() && b.Addr < 0x4000_0000 {
			t.Errorf("data block %s in code window", b)
		}
	}
	// Blocks within a space must not overlap and must be 64-byte aligned.
	for i, a := range blocks {
		if a.Addr%64 != 0 {
			t.Errorf("%s not aligned", a)
		}
		for _, b := range blocks[i+1:] {
			if a.Contains(b.Addr) || b.Contains(a.Addr) {
				t.Errorf("blocks overlap: %s / %s", a, b)
			}
		}
	}
}

func TestAddBlockErrors(t *testing.T) {
	p := buildSample(t)
	if _, err := p.AddBlock("Main", CodeBlock, 10); !errors.Is(err, ErrDuplicateBlock) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := p.AddBlock("Z", CodeBlock, 0); !errors.Is(err, ErrBadBlockSize) {
		t.Errorf("zero size: %v", err)
	}
	if _, err := p.AddBlock("Z", CodeBlock, -1); !errors.Is(err, ErrBadBlockSize) {
		t.Errorf("negative size: %v", err)
	}
	if _, err := p.AddBlock("Z", BlockKind(0), 8); !errors.Is(err, ErrBadBlockKind) {
		t.Errorf("bad kind: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddBlock did not panic")
		}
	}()
	p.MustAddBlock("Main", CodeBlock, 10)
}

func TestBlockLookup(t *testing.T) {
	p := buildSample(t)
	id, ok := p.Lookup("Array1")
	if !ok {
		t.Fatal("Lookup(Array1) failed")
	}
	b, err := p.Block(id)
	if err != nil || b.Name != "Array1" || b.Kind != DataBlock || b.Size != 2048 {
		t.Errorf("Block = %v, err = %v", b, err)
	}
	if _, ok := p.Lookup("Nope"); ok {
		t.Error("Lookup(Nope) succeeded")
	}
	if _, err := p.Block(BlockID(99)); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("Block(99): %v", err)
	}
	if _, err := p.Block(BlockID(-1)); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("Block(-1): %v", err)
	}
}

func TestAddrOfAndFindAddr(t *testing.T) {
	p := buildSample(t)
	id, _ := p.Lookup("Array2")
	addr, err := p.AddrOf(id, 100)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := p.FindAddr(addr)
	if !ok || got != id {
		t.Errorf("FindAddr(%#x) = %d,%v; want %d", addr, got, ok, id)
	}
	if _, err := p.AddrOf(id, 2048); err == nil {
		t.Error("offset past end accepted")
	}
	if _, err := p.AddrOf(id, -1); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := p.AddrOf(BlockID(99), 0); err == nil {
		t.Error("bad id accepted")
	}
	// Addresses outside every block resolve to nothing.
	if _, ok := p.FindAddr(0); ok {
		t.Error("FindAddr(0) resolved")
	}
	if _, ok := p.FindAddr(0xffff_ffff); ok {
		t.Error("FindAddr(max) resolved")
	}
	// The gap between aligned blocks must not resolve.
	b, _ := p.Block(id)
	if _, ok := p.FindAddr(b.End()); ok {
		// End may coincide with the next block's start only if sizes are
		// exactly aligned; Array2 (2048) is followed by Stack at +2048,
		// so End() IS the stack base here. Pick an address in the
		// alignment gap after Stack instead.
		stackID, _ := p.Lookup("Stack")
		sb, _ := p.Block(stackID)
		if _, ok := p.FindAddr(sb.End()); ok {
			t.Error("alignment gap resolved to a block")
		}
	}
}

func TestFindAddrProperty(t *testing.T) {
	// Property: every in-block address resolves to exactly that block.
	p := buildSample(t)
	blocks := p.Blocks()
	rng := rand.New(rand.NewSource(3))
	f := func(blockIdx uint8, off uint16) bool {
		b := blocks[int(blockIdx)%len(blocks)]
		addr := b.Addr + uint32(int(off)%b.Size)
		got, ok := p.FindAddr(addr)
		return ok && got == b.ID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestFindAddrAfterMutation(t *testing.T) {
	// The lazy sorted index must be invalidated by AddBlock.
	p := buildSample(t)
	if _, ok := p.FindAddr(0x4000_0000); !ok {
		t.Fatal("warmup FindAddr failed")
	}
	id := p.MustAddBlock("Array3", DataBlock, 4096)
	addr, _ := p.AddrOf(id, 10)
	got, ok := p.FindAddr(addr)
	if !ok || got != id {
		t.Error("FindAddr missed block added after index build")
	}
}

// TestBlockMemoMatchesFindAddr: a memoized lookup agrees with FindAddr
// on every address, in and out of blocks and across block boundaries,
// whatever block the memo last held.
func TestBlockMemoMatchesFindAddr(t *testing.T) {
	p := buildSample(t)
	var addrs []uint32
	for _, b := range p.Blocks() {
		addrs = append(addrs, b.Addr-1, b.Addr, b.Addr+1, b.End()-1, b.End(), b.End()+1)
	}
	addrs = append(addrs, 0, 0xffff_ffff)
	rng := rand.New(rand.NewSource(7))
	var memo BlockMemo
	for i := 0; i < 5000; i++ {
		addr := addrs[rng.Intn(len(addrs))]
		gotID, gotOK := memo.Find(p, addr)
		wantID, wantOK := p.FindAddr(addr)
		if gotOK != wantOK || (wantOK && gotID != wantID) {
			t.Fatalf("Find(%#x) = %d,%v; FindAddr = %d,%v", addr, gotID, gotOK, wantID, wantOK)
		}
	}
}

func TestTotalSize(t *testing.T) {
	p := buildSample(t)
	if got := p.TotalSize(nil); got != 20*1024+1024+2048+2048+512 {
		t.Errorf("TotalSize(nil) = %d", got)
	}
	data := p.TotalSize(func(b Block) bool { return b.Kind.IsData() })
	if data != 2048+2048+512 {
		t.Errorf("data TotalSize = %d", data)
	}
}

func TestBlockKindHelpers(t *testing.T) {
	if CodeBlock.String() != "code" || DataBlock.String() != "data" ||
		StackBlock.String() != "stack" || BlockKind(9).String() != "BlockKind(9)" {
		t.Error("kind stringer")
	}
	if CodeBlock.IsData() || !DataBlock.IsData() || !StackBlock.IsData() {
		t.Error("IsData")
	}
	if BlockKind(0).Valid() || !StackBlock.Valid() {
		t.Error("Valid")
	}
	b := Block{Name: "X", Kind: DataBlock, Size: 8, Addr: 0x40}
	if b.String() == "" || b.End() != 0x48 {
		t.Error("block helpers")
	}
}

func TestRefineSplitsInPlace(t *testing.T) {
	p := buildSample(t)
	refined, err := p.Refine("Array1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if refined.NumBlocks() != p.NumBlocks()+3 {
		t.Fatalf("refined has %d blocks", refined.NumBlocks())
	}
	orig, _ := p.Lookup("Array1")
	ob, err := p.Block(orig)
	if err != nil {
		t.Fatal(err)
	}
	// The sub-blocks tile the parent's range exactly.
	total := 0
	for i := 0; i < 4; i++ {
		id, ok := refined.Lookup("Array1#" + string(rune('0'+i)))
		if !ok {
			t.Fatalf("missing sub-block %d", i)
		}
		sb, err := refined.Block(id)
		if err != nil {
			t.Fatal(err)
		}
		if sb.Kind != ob.Kind {
			t.Error("kind not inherited")
		}
		if sb.Addr != ob.Addr+uint32(total) {
			t.Errorf("sub-block %d at %#x, want %#x", i, sb.Addr, ob.Addr+uint32(total))
		}
		total += sb.Size
	}
	if total != ob.Size {
		t.Errorf("sub-blocks tile %d bytes of %d", total, ob.Size)
	}
	// Every parent address resolves to some sub-block.
	for off := 0; off < ob.Size; off += 128 {
		if _, ok := refined.FindAddr(ob.Addr + uint32(off)); !ok {
			t.Fatalf("address %#x unresolvable after refinement", ob.Addr+uint32(off))
		}
	}
	// The original name is gone; other blocks are intact.
	if _, ok := refined.Lookup("Array1"); ok {
		t.Error("parent name still resolves")
	}
	if _, ok := refined.Lookup("Stack"); !ok {
		t.Error("unrelated block lost")
	}
}

func TestRefineErrors(t *testing.T) {
	p := buildSample(t)
	if _, err := p.Refine("Nope", 2); !errors.Is(err, ErrUnknownBlock) {
		t.Error("unknown block accepted")
	}
	if _, err := p.Refine("Array1", 1); !errors.Is(err, ErrBadBlockSize) {
		t.Error("1 part accepted")
	}
	if _, err := p.Refine("Array1", 10000); !errors.Is(err, ErrBadBlockSize) {
		t.Error("more parts than words accepted")
	}
}
