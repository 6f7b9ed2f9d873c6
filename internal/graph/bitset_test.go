package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsetBasic(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Has(i) {
			t.Fatalf("fresh bitset has bit %d", i)
		}
		b.Set(i)
		if !b.Has(i) {
			t.Fatalf("Set(%d) not visible", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	b.Clear(64)
	if b.Has(64) {
		t.Fatal("Clear(64) did not clear")
	}
	if got := b.Count(); got != 7 {
		t.Fatalf("Count after clear = %d, want 7", got)
	}
}

// TestBitsetOver: two bitsets carved from one backing array each own
// exactly their words, and a too-short backing is refused.
func TestBitsetOver(t *testing.T) {
	var words [4]uint64
	a := BitsetOver(words[0:2], 100)
	b := BitsetOver(words[2:], 100)
	a.Set(99)
	b.Set(0)
	if words[1] != 1<<35 || words[2] != 1 || a.Count() != 1 || b.Count() != 1 {
		t.Fatalf("words = %x, a = %v, b = %v", words, &a, &b)
	}
	a.Reset()
	if !b.Has(0) || words[1] != 0 {
		t.Fatal("Reset of one bitset reached the other's words")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a backing too short for n bits")
		}
	}()
	BitsetOver(words[:1], 65)
}

func TestBitsetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Set")
		}
	}()
	NewBitset(10).Set(10)
}

func TestBitsetSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	NewBitset(10).Or(NewBitset(11))
}

func TestBitsetSetOps(t *testing.T) {
	a := NewBitset(100)
	b := NewBitset(100)
	a.Set(1)
	a.Set(70)
	b.Set(70)
	b.Set(99)

	or := a.Clone()
	or.Or(b)
	if got := or.Bits(); len(got) != 3 || got[0] != 1 || got[1] != 70 || got[2] != 99 {
		t.Fatalf("Or bits = %v", got)
	}

	and := a.Clone()
	and.And(b)
	if got := and.Bits(); len(got) != 1 || got[0] != 70 {
		t.Fatalf("And bits = %v", got)
	}

	diff := a.Clone()
	diff.AndNot(b)
	if got := diff.Bits(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("AndNot bits = %v", got)
	}

	if !a.Intersects(b) {
		t.Fatal("Intersects = false, want true")
	}
	c := NewBitset(100)
	c.Set(2)
	if a.Intersects(c) {
		t.Fatal("Intersects = true, want false")
	}

	if !or.ContainsAll(a) || !or.ContainsAll(b) {
		t.Fatal("union should contain both operands")
	}
	if a.ContainsAll(or) {
		t.Fatal("a should not contain the union")
	}
}

func TestBitsetCloneIndependent(t *testing.T) {
	a := NewBitset(64)
	a.Set(5)
	c := a.Clone()
	c.Set(6)
	if a.Has(6) {
		t.Fatal("Clone is not independent")
	}
	if !c.Has(5) {
		t.Fatal("Clone lost bit 5")
	}
	a.Reset()
	if a.Count() != 0 {
		t.Fatal("Reset did not clear")
	}
	if !c.Has(5) {
		t.Fatal("Reset leaked into clone")
	}
}

func TestBitsetForEachOrderAndStop(t *testing.T) {
	b := NewBitset(200)
	want := []int{3, 64, 65, 199}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) bool { got = append(got, i); return true })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
	var first []int
	b.ForEach(func(i int) bool { first = append(first, i); return len(first) < 2 })
	if len(first) != 2 {
		t.Fatalf("early stop visited %d bits, want 2", len(first))
	}
}

func TestBitsetKeyDistinguishes(t *testing.T) {
	a := NewBitset(128)
	b := NewBitset(128)
	a.Set(127)
	if a.Key() == b.Key() {
		t.Fatal("Key collision for different contents")
	}
	b.Set(127)
	if a.Key() != b.Key() {
		t.Fatal("Key differs for equal contents")
	}
	if !a.Equal(b) {
		t.Fatal("Equal = false for same bits")
	}
}

func TestBitsetQuickOrCommutes(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := NewBitset(1 << 16)
		b := NewBitset(1 << 16)
		for _, x := range xs {
			a.Set(int(x))
		}
		for _, y := range ys {
			b.Set(int(y))
		}
		ab := a.Clone()
		ab.Or(b)
		ba := b.Clone()
		ba.Or(a)
		return ab.Equal(ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetQuickDeMorgan(t *testing.T) {
	// (a & b) bits == bits present in both slices.
	f := func(xs, ys []uint8) bool {
		a := NewBitset(256)
		b := NewBitset(256)
		in := map[int]int{}
		for _, x := range xs {
			a.Set(int(x))
			in[int(x)] |= 1
		}
		for _, y := range ys {
			b.Set(int(y))
			in[int(y)] |= 2
		}
		and := a.Clone()
		and.And(b)
		for i := 0; i < 256; i++ {
			if and.Has(i) != (in[i] == 3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 512
	b := NewBitset(n)
	ref := map[int]bool{}
	for step := 0; step < 5000; step++ {
		i := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			b.Set(i)
			ref[i] = true
		case 1:
			b.Clear(i)
			delete(ref, i)
		case 2:
			if b.Has(i) != ref[i] {
				t.Fatalf("step %d: Has(%d) = %v, ref %v", step, i, b.Has(i), ref[i])
			}
		}
	}
	if b.Count() != len(ref) {
		t.Fatalf("Count = %d, ref %d", b.Count(), len(ref))
	}
}
