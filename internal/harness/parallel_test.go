package harness

import (
	"reflect"
	"sync"
	"testing"

	"tlbmap/internal/npb"
)

// TestRunPerformanceParallelDeterminism is the contract the parallel
// runner is built on: the same config must produce deeply equal PerfResult
// tables — and byte-identical renderings — at every worker count.
func TestRunPerformanceParallelDeterminism(t *testing.T) {
	base := Config{
		Class:       npb.ClassS,
		Benchmarks:  []string{"EP", "SP"},
		Repetitions: 4,
		Seed:        7,
	}
	want, err := RunPerformance(base)
	if err != nil {
		t.Fatal(err)
	}
	wantT4, wantT5 := RenderTable4(want), RenderTable5(want)
	for _, workers := range []int{2, 4, 8} {
		cfg := base
		cfg.Parallel = workers
		got, err := RunPerformance(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: PerfResults differ from sequential run", workers)
		}
		if g := RenderTable4(got); g != wantT4 {
			t.Errorf("workers=%d: Table IV differs:\n%s\nvs sequential:\n%s", workers, g, wantT4)
		}
		if g := RenderTable5(got); g != wantT5 {
			t.Errorf("workers=%d: Table V differs:\n%s\nvs sequential:\n%s", workers, g, wantT5)
		}
	}
}

// TestDetectPatternsParallelDeterminism covers the detection-only path
// (Figures 4/5) the same way: matrices must be identical at any width.
func TestDetectPatternsParallelDeterminism(t *testing.T) {
	base := Config{Class: npb.ClassS, Benchmarks: []string{"CG", "EP", "SP"}, Seed: 5}
	want, err := DetectPatterns(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Parallel = 4
	got, err := DetectPatterns(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("result %d: %s, want %s (order not preserved)", i, got[i].Name, want[i].Name)
		}
		// Cell-exact comparison (Similarity is a correlation and degenerates
		// to 0 on constant matrices like EP's uniform pattern).
		if got[i].SM.Matrix.String() != want[i].SM.Matrix.String() ||
			got[i].HM.Matrix.String() != want[i].HM.Matrix.String() {
			t.Errorf("%s: parallel matrices differ from sequential", want[i].Name)
		}
	}
}

// TestParallelProgressReportsJobs verifies the runner's progress feed
// reaches the harness Progress callback from a parallel run.
func TestParallelProgressReportsJobs(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	cfg := Config{
		Class:       npb.ClassS,
		Benchmarks:  []string{"EP", "SP"},
		Repetitions: 2,
		Parallel:    4,
		Progress: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, format)
			mu.Unlock()
		},
	}
	if _, err := RunPerformance(cfg); err != nil {
		t.Fatal(err)
	}
	var sawJobs, sawCycles bool
	for _, l := range lines {
		if l == "%s: %d/%d jobs done" {
			sawJobs = true
		}
		if l == "perf %s rep %d: OS %d, SM %d, HM %d cycles%s" {
			sawCycles = true
		}
	}
	if !sawJobs {
		t.Error("no jobs-done progress lines")
	}
	if !sawCycles {
		t.Error("no per-job cycle progress lines")
	}
}

// TestJobSeedIndependence pins the seeding scheme: streams must differ
// across benchmark, kind and repetition, and must not depend on anything
// but the config seed and the job identity.
func TestJobSeedIndependence(t *testing.T) {
	cfg := Config{Seed: 3}.withDefaults()
	seen := map[int64]string{}
	for _, bench := range []string{"SP", "LU"} {
		for _, kind := range []string{"workload", "jitter", "os"} {
			for rep := 0; rep < 3; rep++ {
				s := cfg.jobSeed(bench, kind, rep)
				if s <= 0 {
					t.Fatalf("jobSeed(%s,%s,%d) = %d", bench, kind, rep, s)
				}
				id := bench + "/" + kind
				if prev, ok := seen[s]; ok {
					t.Fatalf("seed collision: %s and %s", prev, id)
				}
				seen[s] = id
			}
		}
	}
	if cfg.jobSeed("SP", "os", 1) != cfg.jobSeed("SP", "os", 1) {
		t.Error("jobSeed not deterministic")
	}
}
