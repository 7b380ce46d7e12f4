package trace

import (
	"testing"

	"tlbmap/internal/vm"
)

// drain runs a team to completion, returning every event per thread and
// enforcing the barrier protocol the engine implements.
func drain(t *testing.T, team *Team) [][]Event {
	t.Helper()
	n := len(team.Threads)
	events := make([][]Event, n)
	type state struct{ done, barrier bool }
	st := make([]state, n)
	consume := func(i int, b Batch) {
		events[i] = append(events[i], b.Events...)
		st[i].done = b.Done
		st[i].barrier = b.Barrier
	}
	for i := 0; i < n; i++ {
		consume(i, team.Resume(i))
	}
	for {
		progress := false
		allBarrier := true
		for i := 0; i < n; i++ {
			if st[i].done {
				continue
			}
			if !st[i].barrier {
				consume(i, team.Resume(i))
				progress = true
			}
			if !st[i].done && !st[i].barrier {
				allBarrier = false
			}
		}
		alive := 0
		for i := 0; i < n; i++ {
			if !st[i].done {
				alive++
			}
		}
		if alive == 0 {
			return events
		}
		if !progress && allBarrier {
			// Release the barrier.
			for i := 0; i < n; i++ {
				if !st[i].done && st[i].barrier {
					st[i].barrier = false
				}
			}
		}
	}
}

func TestThreadEventStream(t *testing.T) {
	team := NewTeam([]Program{func(th *Thread) {
		th.Load(100)
		th.Store(200)
		th.Compute(5)
		th.Compute(0) // zero compute emits nothing
	}}, 8)
	evs := drain(t, team)[0]
	want := []Event{
		{Addr: 100, Kind: Load},
		{Addr: 200, Kind: Store},
		{Addr: 5, Kind: Compute},
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(evs), len(want), evs)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, evs[i], want[i])
		}
	}
}

func TestQuantumFlush(t *testing.T) {
	const q = 4
	team := NewTeam([]Program{func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Load(vm.Addr(i))
		}
	}}, q)
	// First batch must contain exactly q events.
	b := team.Resume(0)
	if len(b.Events) != q || b.Done || b.Barrier {
		t.Fatalf("first batch: %d events done=%v barrier=%v", len(b.Events), b.Done, b.Barrier)
	}
	b = team.Resume(0)
	if len(b.Events) != q {
		t.Fatalf("second batch: %d events", len(b.Events))
	}
	b = team.Resume(0)
	if len(b.Events) != 2 || !b.Done {
		t.Fatalf("final batch: %d events done=%v", len(b.Events), b.Done)
	}
}

func TestBarrierBatchFlag(t *testing.T) {
	team := NewTeam([]Program{func(th *Thread) {
		th.Load(1)
		th.Barrier()
		th.Load(2)
	}}, 16)
	b := team.Resume(0)
	if !b.Barrier || len(b.Events) != 1 {
		t.Fatalf("barrier batch: %+v", b)
	}
	b = team.Resume(0)
	if !b.Done || len(b.Events) != 1 || b.Events[0].Addr != 2 {
		t.Fatalf("final batch: %+v", b)
	}
}

func TestSPMDIdentity(t *testing.T) {
	team := SPMD(4, func(th *Thread) {
		th.Load(vm.Addr(th.ID()))
		if th.NumThreads() != 4 {
			t.Error("NumThreads wrong")
		}
	}, 0)
	evs := drain(t, team)
	for i := 0; i < 4; i++ {
		if len(evs[i]) != 1 || evs[i][0].Addr != vm.Addr(i) {
			t.Errorf("thread %d events = %v", i, evs[i])
		}
	}
}

func TestSingleTokenExecution(t *testing.T) {
	// With token passing, only one goroutine runs at a time, so an
	// unsynchronized shared counter must still count exactly.
	counter := 0
	team := SPMD(8, func(th *Thread) {
		for i := 0; i < 100; i++ {
			counter++
			th.Compute(1)
		}
	}, 16)
	drain(t, team)
	if counter != 800 {
		t.Errorf("counter = %d, want 800 (data race in token passing?)", counter)
	}
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" || Compute.String() != "compute" {
		t.Error("kind names")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind")
	}
}

func TestF64Array(t *testing.T) {
	as := vm.NewAddressSpace()
	a := NewF64(as, 10)
	if a.Len() != 10 {
		t.Fatal("len")
	}
	if a.Addr(0).Offset() != 0 {
		t.Error("array not page aligned")
	}
	if a.Addr(3) != a.Addr(0)+24 {
		t.Error("element addressing wrong")
	}
	b := NewF64(as, 10)
	if a.Addr(9).Page() == b.Addr(0).Page() {
		t.Error("arrays share a page")
	}
	// Traced ops compute real values.
	var got []Event
	team := NewTeam([]Program{func(th *Thread) {
		a.Set(th, 2, 1.5)
		a.Add(th, 2, 2.0)
		if v := a.Get(th, 2); v != 3.5 {
			t.Errorf("value = %v, want 3.5", v)
		}
	}}, 64)
	got = drain(t, team)[0]
	// Set: 1 store; Add: load+store; Get: 1 load.
	kinds := []Kind{Store, Load, Store, Load}
	if len(got) != len(kinds) {
		t.Fatalf("events = %v", got)
	}
	for i, k := range kinds {
		if got[i].Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, got[i].Kind, k)
		}
		if got[i].Addr != a.Addr(2) {
			t.Errorf("event %d addr = %v", i, got[i].Addr)
		}
	}
	// Untraced access.
	a.Poke(5, 9)
	if a.Peek(5) != 9 {
		t.Error("poke/peek")
	}
	a.Fill(1)
	if a.Peek(5) != 1 || a.Peek(0) != 1 {
		t.Error("fill")
	}
}

func TestI64Array(t *testing.T) {
	as := vm.NewAddressSpace()
	a := NewI64(as, 4)
	team := NewTeam([]Program{func(th *Thread) {
		a.Set(th, 0, 7)
		a.Add(th, 0, 3)
		if a.Get(th, 0) != 10 {
			t.Error("i64 arithmetic")
		}
	}}, 64)
	drain(t, team)
	if a.Peek(0) != 10 {
		t.Error("value lost")
	}
	a.Poke(1, -5)
	if a.Peek(1) != -5 {
		t.Error("poke")
	}
	if a.Len() != 4 {
		t.Error("len")
	}
}

func TestGrid3Indexing(t *testing.T) {
	as := vm.NewAddressSpace()
	g := NewGrid3(as, 4, 3, 2)
	if g.Index(0, 0, 0) != 0 || g.Index(1, 0, 0) != 6 || g.Index(0, 1, 0) != 2 || g.Index(0, 0, 1) != 1 {
		t.Error("z-major indexing wrong")
	}
	g.Poke(3, 2, 1, 42)
	if g.Peek(3, 2, 1) != 42 {
		t.Error("poke/peek")
	}
	if g.Flat().Len() != 24 {
		t.Error("flat length")
	}
	g.Fill(2)
	if g.Peek(0, 0, 0) != 2 {
		t.Error("fill")
	}
	team := NewTeam([]Program{func(th *Thread) {
		g.Set(th, 1, 1, 1, 5)
		g.Add(th, 1, 1, 1, 1)
		if g.Get(th, 1, 1, 1) != 6 {
			t.Error("grid arithmetic")
		}
	}}, 64)
	drain(t, team)
}

func TestGrid3PanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad grid accepted")
		}
	}()
	NewGrid3(vm.NewAddressSpace(), 0, 1, 1)
}

func TestMatrix2(t *testing.T) {
	as := vm.NewAddressSpace()
	m := NewMatrix2(as, 3, 4)
	if m.Index(2, 3) != 11 {
		t.Error("row-major indexing")
	}
	m.Poke(1, 2, 8)
	if m.Peek(1, 2) != 8 {
		t.Error("poke/peek")
	}
	if m.Flat().Len() != 12 {
		t.Error("flat length")
	}
	team := NewTeam([]Program{func(th *Thread) {
		m.Set(th, 0, 0, 3)
		if m.Get(th, 0, 0) != 3 {
			t.Error("matrix get/set")
		}
	}}, 64)
	drain(t, team)
}

func TestMatrix2PanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad matrix accepted")
		}
	}()
	NewMatrix2(vm.NewAddressSpace(), 1, 0)
}
