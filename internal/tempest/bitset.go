package tempest

import (
	"fmt"
	"math/bits"
	"strings"
)

// Bitset is a set of node IDs. The first 64 IDs live in an inline word,
// so on paper-scale machines (the 32-processor CM-5 partition) a set
// never allocates; IDs 64 and up spill into lazily grown extension
// words, scaling the directory to kilonode machines. The extension sits
// behind one pointer, so the set costs two words inline wherever it is
// embedded (every directory slot, every schedule entry). The zero value
// is the empty set.
//
// A Bitset assignment copies the inline word but aliases the extension
// words — use Clone for an independent snapshot that will be mutated or
// that must survive mutation of the original.
type Bitset struct {
	lo uint64    // IDs 0..63
	hi *[]uint64 // word w holds IDs 64*(w+1) .. 64*(w+2)-1
}

// words returns the extension words (nil when none were ever needed).
func (b Bitset) words() []uint64 {
	if b.hi == nil {
		return nil
	}
	return *b.hi
}

// Add inserts node n.
func (b *Bitset) Add(n int) {
	if n < 64 {
		b.lo |= 1 << uint(n)
		return
	}
	if b.hi == nil {
		b.hi = new([]uint64)
	}
	w := n/64 - 1
	for len(*b.hi) <= w {
		*b.hi = append(*b.hi, 0)
	}
	(*b.hi)[w] |= 1 << uint(n%64)
}

// Remove deletes node n.
func (b *Bitset) Remove(n int) {
	if n < 64 {
		b.lo &^= 1 << uint(n)
		return
	}
	if hi := b.words(); n/64-1 < len(hi) {
		hi[n/64-1] &^= 1 << uint(n%64)
	}
}

// Has reports membership of node n.
func (b Bitset) Has(n int) bool {
	if n < 64 {
		return b.lo&(1<<uint(n)) != 0
	}
	hi := b.words()
	w := n/64 - 1
	return w < len(hi) && hi[w]&(1<<uint(n%64)) != 0
}

// Empty reports whether the set has no members.
func (b Bitset) Empty() bool {
	if b.lo != 0 {
		return false
	}
	for _, w := range b.words() {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of members.
func (b Bitset) Count() int {
	n := bits.OnesCount64(b.lo)
	for _, w := range b.words() {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clear removes all members. Extension storage is retained for reuse.
func (b *Bitset) Clear() {
	b.lo = 0
	clear(b.words())
}

// Clone returns an independent copy: mutating either set never affects
// the other.
func (b Bitset) Clone() Bitset {
	out := Bitset{lo: b.lo}
	if hi := b.words(); len(hi) > 0 {
		w := append([]uint64(nil), hi...)
		out.hi = &w
	}
	return out
}

// ForEach calls fn for each member in ascending order.
func (b Bitset) ForEach(fn func(n int)) {
	forWord(b.lo, 0, fn)
	for w, v := range b.words() {
		forWord(v, 64*(w+1), fn)
	}
}

func forWord(v uint64, base int, fn func(n int)) {
	for v != 0 {
		n := bits.TrailingZeros64(v)
		fn(base + n)
		v &^= 1 << uint(n)
	}
}

// String renders the set as {0,3,7}.
func (b Bitset) String() string {
	var parts []string
	b.ForEach(func(n int) { parts = append(parts, fmt.Sprint(n)) })
	return "{" + strings.Join(parts, ",") + "}"
}
