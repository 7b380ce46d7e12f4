package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// schedEvent is one completed data access as the recorder saw it; the full
// sequence is the run's observable event order.
type schedEvent struct {
	thread, core int
	kind         trace.Kind
	addr         vm.Addr
	frame        vm.Frame
}

// schedRecorder is a Checker that records the exact order the engine
// retired accesses and migrations in. Two runs with identical recordings
// interleaved their threads identically.
type schedRecorder struct {
	events []schedEvent
	migs   [][]int
}

func (r *schedRecorder) Begin(CheckEnv) {}

func (r *schedRecorder) OnAccess(thread, core int, ev trace.Event, frame vm.Frame) error {
	r.events = append(r.events, schedEvent{thread, core, ev.Kind, ev.Addr, frame})
	return nil
}

func (r *schedRecorder) OnMigration(now uint64, placement []int) error {
	r.migs = append(r.migs, append([]int(nil), placement...))
	return nil
}

func (r *schedRecorder) Finish(*Result) error { return nil }

// schedWorkload builds a fresh seeded random team (traces are consumed by a
// run, so each run rebuilds). All threads share the barrier phase count, so
// barriers always match up; within a phase each thread draws its own mix of
// accesses and compute from a thread-derived seed.
func schedWorkload(seed int64, n int) (*vm.AddressSpace, *trace.Team) {
	as := vm.NewAddressSpace()
	shape := rand.New(rand.NewSource(seed))
	arr := trace.NewF64(as, 2048+shape.Intn(4096))
	phases := 1 + shape.Intn(4)
	quantum := 32 + shape.Intn(96) // small quanta: frequent refills
	team := trace.SPMD(n, func(th *trace.Thread) {
		rng := rand.New(rand.NewSource(seed ^ int64(th.ID())*0x9e3779b9))
		for p := 0; p < phases; p++ {
			steps := 50 + rng.Intn(300)
			for s := 0; s < steps; s++ {
				switch rng.Intn(4) {
				case 0:
					th.Compute(uint64(1 + rng.Intn(500)))
				case 1:
					arr.Set(th, rng.Intn(arr.Len()), 1)
				default:
					arr.Get(th, rng.Intn(arr.Len()))
				}
			}
			th.Barrier()
		}
	}, quantum)
	return as, team
}

// schedConfig derives a run config from the trial number, cycling through
// detector modes and toggling jitter and migration so the differential
// covers every scheduler-visible code path: barrier park/release, uniform
// HM scan charges, per-thread SM miss charges, migration clock bumps and
// preemption stalls.
func schedConfig(machine *topology.Machine, trial int, seed int64, linear bool) Config {
	n := machine.NumCores()
	cfg := Config{Machine: machine}
	if linear {
		cfg.refPick = linearPick
	}
	switch trial % 3 {
	case 0:
		// NullDetector fast path.
	case 1:
		cfg.Detector = comm.NewSMDetector(n, 1)
		cfg.TLBMode = tlb.SoftwareManaged
	case 2:
		cfg.Detector = comm.NewHMDetector(n, 2000)
	}
	if trial%2 == 0 {
		cfg.JitterSeed = seed | 1
	}
	if trial%4 < 2 {
		// Deterministic random shuffles on a short interval; the RNG is
		// rebuilt per run so both scheduler variants see the same moves.
		mig := rand.New(rand.NewSource(seed ^ 0x736368656432))
		cfg.MigrationInterval = 30_000
		cfg.Migrator = func(now uint64, placement []int) []int {
			if mig.Intn(2) == 0 {
				return nil
			}
			next := append([]int(nil), placement...)
			mig.Shuffle(len(next), func(i, j int) { next[i], next[j] = next[j], next[i] })
			return next
		}
	}
	return cfg
}

// linearPick is the original Θ(threads) scheduler selection, kept as the
// reference implementation: the engine runs it through Config.refPick,
// one event per span, and the differential tests below pit it against the
// ready queue and the batched apply loop.
func linearPick(states []threadState) int {
	best := -1
	for i := range states {
		st := &states[i]
		if st.done || st.atBarrier {
			continue
		}
		if best == -1 || st.clock < states[best].clock {
			best = i
		}
	}
	return best
}

// TestHeapSchedulerMatchesLinear is the randomized engine-level
// differential for the ready queue and the batched apply loop: every
// seeded trace, driven live and replayed compiled, must produce the exact
// same event order and Result as the original per-event linear scan,
// across detectors, jitter, barriers and migrations. Eight threads run on
// the sorted ring.
func TestHeapSchedulerMatchesLinear(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		schedMatchesLinear(t, topology.Harpertown(), trial)
	}
}

// TestHeapSchedulerMatchesLinearAboveRing is the same differential one
// thread past ringSchedMax, where the engine switches to the heap. Like
// every trial, it also replays the compiled trace through the ready queue.
func TestHeapSchedulerMatchesLinearAboveRing(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		schedMatchesLinear(t, oddMachine(ringSchedMax+1), trial)
	}
}

func schedMatchesLinear(t *testing.T, machine *topology.Machine, trial int) {
	t.Helper()
	seed := int64(1000 + 7919*trial)
	run := func(linear, compiled bool) (*Result, *schedRecorder) {
		as, team := schedWorkload(seed, machine.NumCores())
		cfg := schedConfig(machine, trial, seed, linear)
		rec := &schedRecorder{}
		cfg.Checker = rec
		var src trace.Source = team
		if compiled {
			src = trace.Compile(team).NewSource()
		}
		res, err := Run(cfg, as, src)
		if err != nil {
			t.Fatalf("trial %d (linear=%v, compiled=%v): %v", trial, linear, compiled, err)
		}
		return res, rec
	}
	linRes, linRec := run(true, false)
	for _, compiled := range []bool{false, true} {
		res, rec := run(false, compiled)
		if len(rec.events) != len(linRec.events) {
			t.Fatalf("trial %d (compiled=%v): %d events under the ready queue, %d under linear scan",
				trial, compiled, len(rec.events), len(linRec.events))
		}
		for k := range rec.events {
			if rec.events[k] != linRec.events[k] {
				t.Fatalf("trial %d (compiled=%v): event %d diverged: queue %+v, linear %+v",
					trial, compiled, k, rec.events[k], linRec.events[k])
			}
		}
		if !reflect.DeepEqual(rec.migs, linRec.migs) {
			t.Fatalf("trial %d (compiled=%v): migration sequences diverged:\nqueue  %v\nlinear %v",
				trial, compiled, rec.migs, linRec.migs)
		}
		if !reflect.DeepEqual(res, linRes) {
			t.Fatalf("trial %d (compiled=%v): results diverged:\nqueue  %+v\nlinear %+v",
				trial, compiled, res, linRes)
		}
	}
}

// TestSchedHeapOrdering drives the ready queue directly through a random
// push/remove/fix/addAll sequence on both sides of the ring/heap boundary
// and checks that pick, peek and the runner-up bound (nextKey) always agree
// with a linear reference over the queued set.
func TestSchedHeapOrdering(t *testing.T) {
	for _, n := range []int{1, 2, 8, ringSchedMax, ringSchedMax + 1} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { schedOrdering(t, n) })
	}
}

func schedOrdering(t *testing.T, n int) {
	rng := rand.New(rand.NewSource(int64(99 + n)))
	states := make([]threadState, n)
	h := newSchedHeap(states, nil)
	if got, want := h.ring != nil, n <= ringSchedMax; got != want {
		t.Fatalf("ring mode = %v at %d threads, want %v", got, n, want)
	}
	inQueue := make([]bool, n)
	for i := range states {
		states[i].clock = uint64(rng.Intn(8)) // many ties
		h.push(i)
		inQueue[i] = true
	}
	// Reference selection over the queued subset: the smallest packed key
	// and the smallest key among the others.
	refPick := func() (int, uint64) {
		best, second := -1, absentKey
		var bestKey uint64
		for i := range states {
			if !inQueue[i] {
				continue
			}
			k := states[i].clock<<h.idBits | uint64(i)
			switch {
			case best == -1 || k < bestKey:
				if best != -1 {
					second = bestKey
				}
				best, bestKey = i, k
			case k < second:
				second = k
			}
		}
		return best, second
	}
	for op := 0; op < 20000; op++ {
		i := rng.Intn(n)
		switch rng.Intn(6) {
		case 0:
			if inQueue[i] {
				h.remove(i)
				inQueue[i] = false
			}
		case 1:
			if !inQueue[i] {
				h.push(i)
				inQueue[i] = true
			}
		case 2:
			// Uniform charge (HM scan): every live thread's clock moves,
			// the queue shifts its keys.
			delta := uint64(rng.Intn(5))
			for j := range states {
				states[j].clock += delta
			}
			h.addAll(delta)
		case 3:
			// The engine's span boundary: rebuild the thread that ran —
			// usually the pick, but after a mid-span migration or stall
			// it may be any thread (or a parked one).
			p := i
			if rng.Intn(4) != 0 && h.peek() >= 0 {
				p = h.peek()
			}
			states[p].clock += uint64(rng.Intn(6))
			got, gotNext := h.fixAndPick(p)
			want, wantNext := refPick()
			if got != want || gotNext != wantNext {
				t.Fatalf("op %d: fixAndPick(%d) = (%d, %#x), reference (%d, %#x)",
					op, p, got, gotNext, want, wantNext)
			}
		default:
			// Clock moves forward (as in the engine) or jumps to a tied
			// value to stress the id tie-break.
			if rng.Intn(2) == 0 {
				states[i].clock += uint64(rng.Intn(6))
			} else {
				states[i].clock = uint64(rng.Intn(8))
			}
			h.fix(i)
		}
		want, wantNext := refPick()
		if got, gotNext := h.pick(); got != want || gotNext != wantNext {
			t.Fatalf("op %d: pick = (%d, %#x), reference (%d, %#x)", op, got, gotNext, want, wantNext)
		}
		if got := h.peek(); got != want {
			t.Fatalf("op %d: peek = %d, reference %d", op, got, want)
		}
		if got := h.nextKey(); got != wantNext {
			t.Fatalf("op %d: nextKey = %#x, reference %#x", op, got, wantNext)
		}
	}
}

// BenchmarkReadyQueue measures one scheduler step — a pick plus the fix of
// the thread that ran, fused as the engine calls it (fixAndPick) — on a
// lockstep clock pattern: most events cost a few cycles, one in ten is a
// memory-latency stall. Below ringSchedMax threads this is the sorted
// ring, above it the heap.
func BenchmarkReadyQueue(b *testing.B) {
	for _, n := range []int{8, ringSchedMax, 256} {
		b.Run(fmt.Sprintf("threads%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			steps := make([]uint64, 1024)
			for k := range steps {
				steps[k] = uint64(1 + rng.Intn(4))
				if rng.Intn(10) == 0 {
					steps[k] = uint64(100 + rng.Intn(200))
				}
			}
			states := make([]threadState, n)
			h := newSchedHeap(states, nil)
			for i := range states {
				h.push(i)
			}
			i, _ := h.pick()
			b.ResetTimer()
			for op := 0; op < b.N; op++ {
				states[i].clock += steps[op&1023]
				i, _ = h.fixAndPick(i)
			}
		})
	}
}

// TestFrameBitset checks the bitset against a map across growth.
func TestFrameBitset(t *testing.T) {
	b := newFrameBitset(10)
	ref := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 5000; op++ {
		f := uint64(rng.Intn(3000))
		if got := b.test(f); got != ref[f] {
			t.Fatalf("op %d: test(%d) = %v, want %v", op, f, got, ref[f])
		}
		if rng.Intn(2) == 0 {
			b.set(f)
			ref[f] = true
		}
	}
}
