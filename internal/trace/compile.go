package trace

import (
	"fmt"
	"sync"
)

// Source is the engine-facing supplier of event batches. Two
// implementations exist: *Team (the reference token-passing path — one
// goroutine per thread, batches handed over channels) and *Replay (flat
// precompiled arrays, no goroutines). The engine drives either through the
// same two calls, so every scheduling decision — batch boundaries,
// barrier parking, done detection — is taken identically on both paths.
type Source interface {
	// NumThreads returns the number of threads in the workload.
	NumThreads() int
	// Resume lets thread i run until its next yield and returns the batch
	// it produced; the first call releases the thread. The caller owns the
	// returned Events slice only until the next Resume of the same thread.
	Resume(i int) Batch
}

// NumThreads returns the team size, making *Team a Source.
func (tm *Team) NumThreads() int { return len(tm.Threads) }

// mark records one batch: where its events sit in the thread's chunk
// storage plus the terminator the thread yielded with. Replay reconstructs
// the exact batch sequence the goroutine produced — same event counts,
// same empty barrier batches, same final Done batch — so everything keyed
// on batch boundaries (fault-injection quantum hooks, cancellation polls,
// barrier alignment) behaves identically on both paths.
type mark struct {
	chunk      int32
	start, end int32
	barrier    bool
	done       bool
}

// Chunk sizes, in events. A thread's first chunk holds one default
// quantum; each further chunk doubles, up to maxChunk. A batch never
// straddles two chunks — one that does not fit in the current chunk's
// free tail starts a new one — so every batch is a zero-copy subslice of
// a single chunk, and nothing is copied once recorded. The slack this
// leaves is the free tail of each thread's last chunk plus less than one
// batch per earlier chunk.
const (
	minChunk = DefaultQuantum
	maxChunk = 1 << 16
)

// Compiled is a workload compiled to flat form: each thread's events in a
// short list of geometrically growing chunks plus the recorded batch
// boundaries. Its events and batches are immutable after Compile (the
// ThreadEvents cache is filled under a sync.Once), so it is safe to share
// between any number of concurrent Replay cursors, which is what makes
// compile-once/replay-many cheap: the harness compiles each benchmark
// kernel once and every (placement × repetition) job replays the same
// arrays.
type Compiled struct {
	chunks [][][]Event // chunks[i] = thread i's event chunks
	marks  [][]mark
	// flat caches ThreadEvents' concatenation per thread.
	flat []flatEvents
}

type flatEvents struct {
	once   sync.Once
	events []Event
}

// NumThreads returns the number of threads in the compiled workload.
func (c *Compiled) NumThreads() int { return len(c.marks) }

// NumEvents returns the total event count across all threads.
func (c *Compiled) NumEvents() uint64 {
	var n uint64
	for _, cs := range c.chunks {
		for _, evs := range cs {
			n += uint64(len(evs))
		}
	}
	return n
}

// ThreadEvents returns thread i's full event stream, concatenated from its
// chunks on the first call and cached (callers walk the stream repeatedly,
// so a fresh copy per call would make them quadratic). The slice must not
// be mutated.
func (c *Compiled) ThreadEvents(i int) []Event {
	f := &c.flat[i]
	f.once.Do(func() {
		var n int
		for _, evs := range c.chunks[i] {
			n += len(evs)
		}
		f.events = make([]Event, 0, n)
		for _, evs := range c.chunks[i] {
			f.events = append(f.events, evs...)
		}
	})
	return f.events
}

// Batches returns how many batches thread i yields during replay.
func (c *Compiled) Batches(i int) int { return len(c.marks[i]) }

// batch returns the events of thread i's j-th batch.
func (c *Compiled) batch(i, j int) []Event {
	m := c.marks[i][j]
	return c.chunks[i][m.chunk][m.start:m.end:m.end]
}

// NewSource returns a fresh replay cursor positioned at the beginning.
func (c *Compiled) NewSource() *Replay {
	return &Replay{c: c, next: make([]int32, len(c.marks))}
}

// Replay walks a Compiled workload, serving zero-copy subslices of the
// chunk storage exactly at the recorded batch boundaries. A Replay is
// single-run state (a few bytes of cursor per thread); allocate one per
// run with NewSource or recycle it with Reset. Replaying performs no
// allocation, no goroutine switches and no channel operations.
type Replay struct {
	c    *Compiled
	next []int32 // per-thread index of the next mark to serve
}

// NumThreads returns the number of threads in the workload.
func (r *Replay) NumThreads() int { return len(r.c.marks) }

// Resume serves thread i's next recorded batch. It panics when called
// after the thread's Done batch — the engine never resumes a finished
// thread, so this indicates a driver bug.
func (r *Replay) Resume(i int) Batch {
	k := r.next[i]
	ms := r.c.marks[i]
	if int(k) >= len(ms) {
		panic(fmt.Sprintf("trace: replay resumed thread %d past its Done batch", i))
	}
	r.next[i] = k + 1
	m := ms[k]
	return Batch{
		Events:  r.c.chunks[i][m.chunk][m.start:m.end:m.end],
		Barrier: m.barrier,
		Done:    m.done,
	}
}

// Reset rewinds every thread to its first batch so the Replay can drive
// another run without reallocating.
func (r *Replay) Reset() {
	for i := range r.next {
		r.next[i] = 0
	}
}

// Compile runs every thread of the team to completion once, recording each
// thread's event stream into flat contiguous storage. The team is consumed:
// its goroutines run to completion here and it must not be reused.
//
// Threads are drained one barrier phase at a time in ascending thread
// order, which is one legal serialization of the team (the engine
// interleaves phases differently but — for kernels whose emitted stream
// does not depend on cross-thread data timing within a phase — produces
// the same per-thread streams; every kernel in internal/workload satisfies
// this, enforced by the compiled-vs-goroutine differential tests). Kernels
// that race on traced data within a phase may record a stream that differs
// from a live-scheduled run; CompileChecked detects those, and the
// goroutine path remains the fallback.
func Compile(team *Team) *Compiled {
	return compileOrder(team, false)
}

// CompileChecked compiles the workload twice — draining barrier phases in
// ascending and in descending thread order — and fails if the recorded
// streams differ, which proves the kernel's emissions depend on
// cross-thread scheduling within a phase (a data race on traced arrays).
// Such kernels must stay on the goroutine path. mk must build a fresh
// team on every call.
func CompileChecked(mk func() *Team) (*Compiled, error) {
	asc := compileOrder(mk(), false)
	desc := compileOrder(mk(), true)
	if err := equalStreams(asc, desc); err != nil {
		return nil, fmt.Errorf("trace: workload is schedule-dependent, keep the goroutine path: %w", err)
	}
	return asc, nil
}

func compileOrder(team *Team, reverse bool) *Compiled {
	n := len(team.Threads)
	c := &Compiled{
		chunks: make([][][]Event, n),
		marks:  make([][]mark, n),
		flat:   make([]flatEvents, n),
	}
	done := make([]bool, n)
	alive := n
	// Drain one barrier phase per outer iteration: each alive thread runs
	// until it parks at the barrier or finishes, then the barrier releases
	// and the next phase begins.
	for alive > 0 {
		for k := 0; k < n; k++ {
			i := k
			if reverse {
				i = n - 1 - k
			}
			if done[i] {
				continue
			}
			for {
				b := team.Resume(i)
				c.record(i, b)
				if b.Done {
					done[i] = true
					alive--
					break
				}
				if b.Barrier {
					break
				}
			}
		}
	}
	return c
}

// record appends one batch to thread i's chunk storage, starting a new
// chunk when the batch does not fit the current one's free tail. An empty
// batch needs no room; if it is the thread's first, it gets an empty
// chunk to point into.
func (c *Compiled) record(i int, b Batch) {
	cs := c.chunks[i]
	n := len(b.Events)
	if len(cs) == 0 || len(cs[len(cs)-1])+n > cap(cs[len(cs)-1]) {
		var next []Event
		if n > 0 {
			size := minChunk
			if len(cs) > 0 {
				size = max(min(2*cap(cs[len(cs)-1]), maxChunk), minChunk)
			}
			next = make([]Event, 0, max(size, n))
		}
		cs = append(cs, next)
		c.chunks[i] = cs
	}
	last := len(cs) - 1
	start := len(cs[last])
	cs[last] = append(cs[last], b.Events...)
	c.marks[i] = append(c.marks[i], mark{
		chunk:   int32(last),
		start:   int32(start),
		end:     int32(len(cs[last])),
		barrier: b.Barrier,
		done:    b.Done,
	})
}

// equalStreams reports the first difference between two compiled
// workloads, comparing both the event streams and the recorded batch
// structure.
func equalStreams(a, b *Compiled) error {
	if len(a.marks) != len(b.marks) {
		return fmt.Errorf("thread counts differ: %d vs %d", len(a.marks), len(b.marks))
	}
	for i := range a.marks {
		am, bm := a.marks[i], b.marks[i]
		if len(am) != len(bm) {
			return fmt.Errorf("thread %d yielded %d batches vs %d", i, len(am), len(bm))
		}
		offset := 0
		for j := range am {
			ae, be := a.batch(i, j), b.batch(i, j)
			if len(ae) != len(be) || am[j].barrier != bm[j].barrier || am[j].done != bm[j].done {
				return fmt.Errorf("thread %d batch %d boundary differs: %d events barrier=%v done=%v vs %d/%v/%v",
					i, j, len(ae), am[j].barrier, am[j].done, len(be), bm[j].barrier, bm[j].done)
			}
			for k := range ae {
				if ae[k] != be[k] {
					return fmt.Errorf("thread %d event %d differs: %v %#x vs %v %#x",
						i, offset+k, ae[k].Kind, uint64(ae[k].Addr), be[k].Kind, uint64(be[k].Addr))
				}
			}
			offset += len(ae)
		}
	}
	return nil
}
