package trace_test

import (
	"testing"

	"tlbmap/internal/npb"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// kernelTeam instantiates an NPB kernel in a fresh address space. Equal
// arguments give identical event streams.
func kernelTeam(tb testing.TB, name string, threads int, class npb.Class) *trace.Team {
	tb.Helper()
	b, err := npb.Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	programs := b.Build(vm.NewAddressSpace(), npb.Params{Threads: threads, Class: class})
	return trace.NewTeam(programs, 0)
}

// TestCompileKernelMatchesReference compiles a class-W kernel, long enough
// per thread to grow chunks to their cap, and requires the chunked storage
// to match the append-based reference compile.
func TestCompileKernelMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("class-W compile skipped in -short mode")
	}
	c := trace.Compile(kernelTeam(t, "CG", 8, npb.ClassW))
	if err := trace.CheckChunkLayout(c); err != nil {
		t.Fatal(err)
	}
	trace.MatchesReference(t, "CG/W", c, kernelTeam(t, "CG", 8, npb.ClassW))
}

// TestCompileChunkSlack bounds the storage a compile reserves beyond its
// events: at most one chunk per thread, measured on a 1024-thread class-S
// compile (many short threads, where per-thread slack dominates).
func TestCompileChunkSlack(t *testing.T) {
	c := trace.Compile(kernelTeam(t, "CG", 1024, npb.ClassS))
	if err := trace.CheckChunkLayout(c); err != nil {
		t.Fatal(err)
	}
	total, largest := trace.ChunkCapacity(c)
	events := c.NumEvents()
	if total > events+largest {
		t.Fatalf("chunk capacity %d events exceeds %d events + one chunk per thread (%d)",
			total, events, largest)
	}
	t.Logf("%d events in %d chunk slots (slack %.1f%%)", events, total,
		100*float64(total-events)/float64(events))
}

// BenchmarkCompile measures trace.Compile of one class-W kernel, from
// instantiating the kernel's thread team to the finished chunk storage.
func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		c := trace.Compile(kernelTeam(b, "CG", 8, npb.ClassW))
		events += c.NumEvents()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}
