package trace

import "testing"

// Test-only access for the external kernel tests (package trace_test),
// which import the NPB kernels and so cannot live in this package.

// MatchesReference compiles team with the append-based reference compiler
// and requires c to match it.
func MatchesReference(t *testing.T, name string, c *Compiled, team *Team) {
	t.Helper()
	matchesReference(t, name, c, refCompile(team))
}

// CheckChunkLayout exposes checkChunkLayout.
var CheckChunkLayout = checkChunkLayout

// ChunkCapacity returns the total capacity of c's chunks and the summed
// capacity of each thread's largest chunk.
func ChunkCapacity(c *Compiled) (total, largest uint64) {
	for _, cs := range c.chunks {
		var big int
		for _, evs := range cs {
			total += uint64(cap(evs))
			big = max(big, cap(evs))
		}
		largest += uint64(big)
	}
	return total, largest
}
