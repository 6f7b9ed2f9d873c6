// Package graph provides the directed- and undirected-graph machinery the
// rest of the library is built on: dense bitsets, DAG validation,
// topological sorting, strongly connected components, transitive closure,
// and enumeration of simple cycles in undirected interaction graphs.
//
// Everything here is deliberately allocation-conscious: the paper's
// polynomial algorithms (Theorems 3 and 4) assume transactions are given in
// transitively closed form, so transitive closures are computed once per
// transaction and stored as bitset rows.
package graph

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitset is a fixed-capacity dense bitset. The zero value is unusable; use
// NewBitset or BitsetOver. Capacity is fixed at creation.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a bitset able to hold bits [0, n).
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, WordsFor(n)), n: n}
}

// WordsFor returns the number of 64-bit words a bitset of n bits occupies.
func WordsFor(n int) int {
	if n < 0 {
		panic("graph: negative bitset size")
	}
	return (n + wordBits - 1) / wordBits
}

// BitsetOver returns a bitset over bits [0, n) stored in the caller's
// words — typically an array inline in a larger struct, so the bitset
// allocates nothing of its own. words must hold at least WordsFor(n)
// words; their current bits are the bitset's contents, not cleared.
func BitsetOver(words []uint64, n int) Bitset {
	k := WordsFor(n)
	if len(words) < k {
		panic("graph: too few words for the bitset size") // a constant, so the call inlines
	}
	return Bitset{words: words[:k:k], n: n}
}

// Len returns the capacity of the bitset.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (b *Bitset) Clear(i int) {
	b.check(i)
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Has reports whether bit i is set.
func (b *Bitset) Has(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (b *Bitset) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("graph: bit %d out of range [0,%d)", i, b.n))
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Or sets b = b | other. The bitsets must have equal capacity.
func (b *Bitset) Or(other *Bitset) {
	b.checkSame(other)
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// And sets b = b & other.
func (b *Bitset) And(other *Bitset) {
	b.checkSame(other)
	for i, w := range other.words {
		b.words[i] &= w
	}
}

// AndNot sets b = b &^ other.
func (b *Bitset) AndNot(other *Bitset) {
	b.checkSame(other)
	for i, w := range other.words {
		b.words[i] &^= w
	}
}

// Intersects reports whether b and other share a set bit.
func (b *Bitset) Intersects(other *Bitset) bool {
	b.checkSame(other)
	for i, w := range other.words {
		if b.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether b and other hold exactly the same bits.
func (b *Bitset) Equal(other *Bitset) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range other.words {
		if b.words[i] != w {
			return false
		}
	}
	return true
}

// ContainsAll reports whether every bit of other is set in b.
func (b *Bitset) ContainsAll(other *Bitset) bool {
	b.checkSame(other)
	for i, w := range other.words {
		if w&^b.words[i] != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// CopyFrom overwrites b with the contents of other.
func (b *Bitset) CopyFrom(other *Bitset) {
	b.checkSame(other)
	copy(b.words, other.words)
}

// Reset clears every bit.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// ForEach calls fn for each set bit in increasing order. If fn returns
// false, iteration stops.
func (b *Bitset) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// Bits returns the set bits in increasing order.
func (b *Bitset) Bits() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// Key returns a string usable as a map key identifying the bitset contents.
func (b *Bitset) Key() string {
	var sb strings.Builder
	sb.Grow(len(b.words) * 8)
	for _, w := range b.words {
		for s := 0; s < 64; s += 8 {
			sb.WriteByte(byte(w >> uint(s)))
		}
	}
	return sb.String()
}

// String renders the bitset as {i, j, ...} for debugging.
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}

func (b *Bitset) checkSame(other *Bitset) {
	if b.n != other.n {
		panic(fmt.Sprintf("graph: bitset size mismatch %d vs %d", b.n, other.n))
	}
}
