package sim

import (
	"fmt"
	"math/bits"
)

// schedHeap is the scheduler's ready queue, keyed on (clock, thread id):
// the engine always advances the thread whose core clock is furthest
// behind, with the lexicographic tie-break on the thread id reproducing,
// event for event, the order the original linear scan produced (smallest
// clock wins, equal clocks go to the lowest thread index), so golden files
// and differential corpora stay byte-identical.
//
// The key is packed into one uint64 — clock<<idBits | id — so a
// comparison is a single integer compare on a contiguous array instead of
// two loads through the states slice. Packing steals idBits low bits from
// the clock, which caps runs at 2^(64-idBits) cycles; even a 1024-core
// machine leaves 2^54 cycles of headroom (orders of magnitude beyond any
// simulated run), and key() fails loudly rather than wrap silently.
//
// Two representations share the interface:
//
//   - machines up to ringSchedMax threads keep the runnable keys sorted
//     ascending in a small power-of-two ring. pick reads the head and the
//     slot after it. At these sizes the threads' clocks advance in near
//     lockstep, so a span rarely runs more than one event (DESIGN.md §14)
//     and the just-run thread's rebuilt key lands near the tail:
//     fixAndPick pops the head and inserts by scanning back from the
//     tail, a few compares and no sweep over every thread. The rare
//     operations — fix of another thread, remove, push, addAll — shift at
//     most ringSchedMax keys.
//   - larger machines (the manycore configurations) use an indexed binary
//     min-heap, which drops selection to Θ(log threads) per event.
//
// Done and barrier-parked threads are removed from the queue; an empty
// queue with live threads therefore means "everyone is parked at a
// barrier", exactly the condition the linear scan signalled with -1.
//
// Clock updates reach the queue in two ways:
//
//   - fix(id) rebuilds the thread's key and restores the invariant after
//     one thread's clock changed (every simulated event, migration
//     penalties, preemption stalls);
//   - addAll(delta) mirrors a uniform clock increment applied to every
//     live thread (the HM scan charge): adding the same delta to every
//     packed key preserves the relative order outright.
type schedHeap struct {
	states []threadState
	idBits uint
	idMask uint64
	// ring mode: ring[(head+k)&ringMask] for k < count holds the queued
	// keys in ascending order.
	ring     []uint64
	head     int
	count    int
	ringMask int
	// heap mode: keys[k] = clock<<idBits | id, heap-ordered, and pos[id]
	// is thread id's heap position, or -1.
	keys []uint64
	pos  []int32
	// ref, when set, replaces selection with a reference pick over the
	// thread states and a zero span bound, so every span is one event.
	// Only the engine's differential tests set it (Config.refPick); the
	// heap underneath is still maintained but never consulted.
	ref func([]threadState) int
}

// ringSchedMax is the thread count up to which the sorted ring beats the
// heap: in lockstep its common operation is a pop and a near-tail insert
// over at most four cache lines, while every heap operation pays
// data-dependent branches per level.
const ringSchedMax = 32

// absentKey is the runner-up bound reported when the pick is the only
// runnable thread. Real keys cannot reach it: key() panics first on clock
// overflow.
const absentKey = ^uint64(0)

// newSchedHeap builds an empty ready queue over the engine's thread states.
// The states slice must not be reallocated afterwards; keys are rebuilt
// from it on push and fix. A non-nil ref selects the reference mode.
func newSchedHeap(states []threadState, ref func([]threadState) int) *schedHeap {
	idBits := uint(bits.Len(uint(len(states))))
	if idBits == 0 {
		idBits = 1
	}
	h := &schedHeap{
		states: states,
		idBits: idBits,
		idMask: 1<<idBits - 1,
		ref:    ref,
	}
	if len(states) <= ringSchedMax && ref == nil {
		size := 1
		for size < len(states) {
			size <<= 1
		}
		h.ring = make([]uint64, size)
		h.ringMask = size - 1
		return h
	}
	h.keys = make([]uint64, 0, len(states))
	h.pos = make([]int32, len(states))
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// key packs thread id's current (clock, id) into its queue key.
func (h *schedHeap) key(id int) uint64 {
	clock := h.states[id].clock
	if clock >= 1<<(64-h.idBits) {
		keyOverflow(clock, h.idBits)
	}
	return clock<<h.idBits | uint64(id)
}

// keyOverflow panics on a clock that no longer fits the packed key. The
// fmt call lives here, out of line, so key itself stays small enough to
// inline into the queue maintenance paths.
//
//go:noinline
func keyOverflow(clock uint64, idBits uint) {
	panic(fmt.Sprintf("sim: clock %d overflows the packed scheduler key (%d id bits)", clock, idBits))
}

// peek returns the runnable thread with the smallest (clock, id) key, or -1
// if no thread is runnable.
func (h *schedHeap) peek() int {
	if h.ring != nil {
		if h.count == 0 {
			return -1
		}
		return int(h.ring[h.head] & h.idMask)
	}
	if len(h.keys) == 0 {
		return -1
	}
	return int(h.keys[0] & h.idMask)
}

// pick returns the runnable thread with the smallest key (or -1) plus the
// span bound: the smallest key among the other runnable threads. The
// engine calls it once per span.
func (h *schedHeap) pick() (int, uint64) {
	if h.ref != nil {
		return h.ref(h.states), 0
	}
	return h.peek(), h.nextKey()
}

// fixAndPick is fix(id) followed by pick(): the engine calls it at every
// span boundary with the thread that just ran, whose key must be rebuilt
// before the next selection. In ring mode that thread is normally still
// the head (only a migration or a preemption stall re-keys it mid-span),
// so the rebuild is a pop plus a tail insert.
func (h *schedHeap) fixAndPick(id int) (int, uint64) {
	if h.ring != nil && h.count > 0 && int(h.ring[h.head]&h.idMask) == id {
		h.head = (h.head + 1) & h.ringMask
		h.count--
		h.insert(h.key(id))
	} else {
		h.fix(id)
	}
	return h.pick()
}

// insert places key into the ring, scanning back from the tail. Keys are
// unique (the low bits hold the thread id), so the strict compare is a
// total order.
func (h *schedHeap) insert(key uint64) {
	r, m := h.ring, h.ringMask
	j := h.head + h.count
	for ; j > h.head; j-- {
		prev := r[(j-1)&m]
		if prev < key {
			break
		}
		r[j&m] = prev
	}
	r[j&m] = key
	h.count++
}

// find returns thread id's offset from the ring head, or -1 when absent.
func (h *schedHeap) find(id int) int {
	for k := 0; k < h.count; k++ {
		if int(h.ring[(h.head+k)&h.ringMask]&h.idMask) == id {
			return k
		}
	}
	return -1
}

// removeAt deletes the ring entry at offset k from the head, closing the
// gap from the tail side.
func (h *schedHeap) removeAt(k int) {
	r, m := h.ring, h.ringMask
	for ; k+1 < h.count; k++ {
		r[(h.head+k)&m] = r[(h.head+k+1)&m]
	}
	h.count--
}

// push adds a thread to the ready queue.
func (h *schedHeap) push(id int) {
	if h.ring != nil {
		h.insert(h.key(id))
		return
	}
	k := int32(len(h.keys))
	h.keys = append(h.keys, h.key(id))
	h.pos[id] = k
	h.siftUp(k)
}

// remove takes a thread out of the ready queue (barrier park or
// completion). Removing an absent thread is a no-op.
func (h *schedHeap) remove(id int) {
	if h.ring != nil {
		if k := h.find(id); k >= 0 {
			h.removeAt(k)
		}
		return
	}
	k := h.pos[id]
	if k < 0 {
		return
	}
	last := int32(len(h.keys) - 1)
	if k < last {
		h.moveKey(k, h.keys[last])
	}
	h.keys = h.keys[:last]
	h.pos[id] = -1
	if k < last {
		h.siftDown(k)
		h.siftUp(k)
	}
}

// fix rebuilds thread id's key and restores the queue invariant after its
// clock changed. Absent threads (done, or parked at a barrier) are ignored,
// so callers can fix unconditionally after a clock update. Engine clocks
// only move forward, so the heap's common case sifts toward the leaves; the
// upward pass runs only when the key stayed put.
func (h *schedHeap) fix(id int) {
	if h.ring != nil {
		if k := h.find(id); k >= 0 {
			h.removeAt(k)
			h.insert(h.key(id))
		}
		return
	}
	k := h.pos[id]
	if k < 0 {
		return
	}
	key := h.key(id)
	if !h.siftDownKey(k, key) {
		h.siftUpKey(k, key)
	}
}

// nextKey returns the smallest key among queued threads other than the
// pick — the bound the picked thread's own key must stay below to keep
// being the scheduler's choice — or absentKey when it is the only
// runnable thread. The engine's batched apply loop reads it once per span:
// as long as the running thread's rebuilt key stays below this bound,
// re-running peek would return the same thread, so the engine keeps
// applying its events without touching the queue.
func (h *schedHeap) nextKey() uint64 {
	if h.ring != nil {
		if h.count < 2 {
			return absentKey
		}
		return h.ring[(h.head+1)&h.ringMask]
	}
	switch len(h.keys) {
	case 0, 1:
		return absentKey
	case 2:
		return h.keys[1]
	default:
		if h.keys[2] < h.keys[1] {
			return h.keys[2]
		}
		return h.keys[1]
	}
}

// addAll adds a uniform clock delta to every queued thread's key. The
// caller must have added the same delta to the threads' clocks; relative
// order is unchanged.
func (h *schedHeap) addAll(delta uint64) {
	packed := delta << h.idBits
	for k := 0; k < h.count; k++ {
		h.ring[(h.head+k)&h.ringMask] += packed
	}
	for k := range h.keys {
		h.keys[k] += packed
	}
}

// moveKey places key at position k, updating the position index.
func (h *schedHeap) moveKey(k int32, key uint64) {
	h.keys[k] = key
	h.pos[key&h.idMask] = k
}

func (h *schedHeap) siftUp(k int32) { h.siftUpKey(k, h.keys[k]) }

func (h *schedHeap) siftDown(k int32) { h.siftDownKey(k, h.keys[k]) }

// siftUpKey places key at position k or above. It writes the key (and its
// position) unconditionally, so callers may pass a key that is not yet
// stored at k.
func (h *schedHeap) siftUpKey(k int32, key uint64) {
	for k > 0 {
		parent := (k - 1) / 2
		if key >= h.keys[parent] {
			break
		}
		h.moveKey(k, h.keys[parent])
		k = parent
	}
	h.moveKey(k, key)
}

// siftDownKey places key at position k or below and reports whether it
// moved. When it reports false, nothing was written — the caller decides
// whether key still needs storing at k.
func (h *schedHeap) siftDownKey(k int32, key uint64) bool {
	n := int32(len(h.keys))
	start := k
	for {
		l := 2*k + 1
		if l >= n {
			break
		}
		best := l
		bestKey := h.keys[l]
		if r := l + 1; r < n && h.keys[r] < bestKey {
			best, bestKey = r, h.keys[r]
		}
		if key <= bestKey {
			break
		}
		h.moveKey(k, bestKey)
		k = best
	}
	if k == start {
		return false
	}
	h.moveKey(k, key)
	return true
}

// frameBitset tracks which physical frames have had their memory placed on
// a NUMA node. Frames are allocated densely from zero, so a growable bitset
// replaces the former map[vm.Frame]bool with one load plus a mask test on
// the page-walk path.
type frameBitset struct {
	words []uint64
}

func newFrameBitset(frames uint64) *frameBitset {
	return &frameBitset{words: make([]uint64, (frames+63)/64)}
}

func (b *frameBitset) test(f uint64) bool {
	w := f >> 6
	return w < uint64(len(b.words)) && b.words[w]>>(f&63)&1 != 0
}

func (b *frameBitset) set(f uint64) {
	w := f >> 6
	for uint64(len(b.words)) <= w {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (f & 63)
}
