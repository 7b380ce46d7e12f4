package harness

import (
	"strings"
	"testing"

	"tlbmap/internal/npb"
	"tlbmap/internal/paperdata"
	"tlbmap/internal/runner"
)

// tinyConfig keeps harness tests fast: class S, two benchmarks, two reps.
func tinyConfig() Config {
	return Config{
		Class:       npb.ClassS,
		Benchmarks:  []string{"SP", "EP"},
		Repetitions: 2,
		Seed:        3,
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Class != npb.ClassW {
		t.Error("default class")
	}
	if len(c.Benchmarks) != 9 {
		t.Errorf("default benchmarks = %v", c.Benchmarks)
	}
	if c.Repetitions != 10 || c.Seed != 1 {
		t.Error("default reps/seed")
	}
	if c.Machine() == nil || c.Machine().NumCores() != 8 {
		t.Error("default machine")
	}
}

func TestConfigSortsBenchmarks(t *testing.T) {
	c := Config{Benchmarks: []string{"SP", "BT", "MG"}}.withDefaults()
	if c.Benchmarks[0] != "BT" || c.Benchmarks[2] != "SP" {
		t.Errorf("benchmarks not sorted: %v", c.Benchmarks)
	}
}

func TestDetectPatternsTiny(t *testing.T) {
	var progress []string
	cfg := tinyConfig()
	cfg.Progress = func(f string, a ...any) { progress = append(progress, f) }
	results, err := DetectPatterns(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.SM.Matrix == nil || r.HM.Matrix == nil || r.Oracle.Matrix == nil {
			t.Errorf("%s: missing matrices", r.Name)
		}
		if r.Expected == "" {
			t.Errorf("%s: missing expected pattern", r.Name)
		}
	}
	// EP comes first (sorted).
	if results[0].Name != "EP" || results[1].Name != "SP" {
		t.Errorf("order: %v, %v", results[0].Name, results[1].Name)
	}
	if len(progress) == 0 {
		t.Error("progress callback never invoked")
	}
}

func TestDetectPatternsUnknownBenchmark(t *testing.T) {
	cfg := tinyConfig()
	cfg.Benchmarks = []string{"NOPE"}
	if _, err := DetectPatterns(cfg); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunPerformanceTiny(t *testing.T) {
	results, err := RunPerformance(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		for _, label := range []MappingLabel{OSLabel, SMLabel, HMLabel} {
			st := r.Stats[label]
			if st == nil || st.Time.N() != 2 {
				t.Fatalf("%s/%s: missing stats", r.Name, label)
			}
			if st.Time.Mean() <= 0 {
				t.Errorf("%s/%s: non-positive time", r.Name, label)
			}
		}
		if len(r.PlacementSM) != 8 || len(r.PlacementHM) != 8 {
			t.Errorf("%s: placements missing", r.Name)
		}
		// Normalization: OS to itself is 1.
		if n := r.Normalized(OSLabel, "time"); n != 1 {
			t.Errorf("%s: OS normalized to %v", r.Name, n)
		}
		for _, metric := range []string{"time", "inv", "snoop", "l2miss"} {
			v := r.Normalized(SMLabel, metric)
			if v < 0 {
				t.Errorf("%s: %s normalized = %v", r.Name, metric, v)
			}
		}
		// An unknown metric picks 0 for both sides; Normalize(0,0) is 1
		// ("no change") by design.
		if r.Normalized(SMLabel, "bogus") != 1 {
			t.Error("unknown metric should normalize to 1 (0/0)")
		}
	}
}

func TestRunTable3Tiny(t *testing.T) {
	rows, err := RunTable3(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MissRate < 0 || r.MissRate > 1 || r.Overhead < 0 {
			t.Errorf("%s: implausible row %+v", r.Name, r)
		}
	}
}

func TestRunHMOverheadTiny(t *testing.T) {
	cfg := tinyConfig()
	cfg.Options.ScanInterval = 20_000
	rows, err := RunHMOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("rows missing")
	}
	for _, r := range rows {
		if r.Overhead < 0 || r.Overhead > 1 {
			t.Errorf("%s overhead = %v", r.Name, r.Overhead)
		}
	}
}

func TestRenderers(t *testing.T) {
	cfg := tinyConfig()
	t1 := Table1(cfg)
	for _, want := range []string{"Theta(P)", "231", "84297", "TLB-read"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
	t2 := Table2(cfg)
	for _, want := range []string{"32 KiB", "6 MiB", "MESI", "write-through", "64 entries"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}

	patterns, err := DetectPatterns(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []string{"SM", "HM", "oracle"} {
		out := RenderPatterns(patterns, mech)
		if !strings.Contains(out, "SP") || !strings.Contains(out, "EP") {
			t.Errorf("RenderPatterns(%s) missing benchmarks", mech)
		}
	}

	perf, err := RunPerformance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"time", "inv", "snoop", "l2miss"} {
		out := RenderFigure(perf, metric)
		if !strings.Contains(out, "SP") || !strings.Contains(out, "OS") {
			t.Errorf("RenderFigure(%s) incomplete:\n%s", metric, out)
		}
	}
	if out := RenderTable4(perf); !strings.Contains(out, "Invalidations/s") {
		t.Errorf("Table4 incomplete:\n%s", out)
	}
	if out := RenderTable5(perf); !strings.Contains(out, "%") {
		t.Errorf("Table5 incomplete:\n%s", out)
	}

	rows3, err := RunTable3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderTable3(rows3); !strings.Contains(out, "TLB miss rate") {
		t.Errorf("Table3 incomplete:\n%s", out)
	}
	rowsHM, err := RunHMOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderHMOverhead(rowsHM); !strings.Contains(out, "scans") {
		t.Errorf("HM overhead render incomplete:\n%s", out)
	}
}

func TestPatternSimilarityAccessors(t *testing.T) {
	cfg := tinyConfig()
	cfg.Benchmarks = []string{"SP"}
	results, err := DetectPatterns(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if s := r.SMSimilarity(); s < -1 || s > 1 {
		t.Errorf("SM similarity = %v", s)
	}
	if s := r.HMSimilarity(); s < -1 || s > 1 {
		t.Errorf("HM similarity = %v", s)
	}
}

func TestCompareTiny(t *testing.T) {
	cfg := tinyConfig() // SP + EP at class S
	rows, err := Compare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TimePaper == 0 || r.InvPaper == 0 {
			t.Errorf("%s: paper values missing", r.Name)
		}
		if r.TimeOurs <= 0 {
			t.Errorf("%s: measured values missing", r.Name)
		}
	}
	out := RenderCompare(rows)
	for _, want := range []string{"SP", "EP", "champions", "paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestCompareClassW gates the paper's qualitative claims at the size the
// published comparison is made at: every kernel's shape verdict must hold,
// and each of the paper's headline champions must show a reduction.
func TestCompareClassW(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("class-W comparison: skipped under -short and the race detector")
	}
	rows, err := Compare(Config{Class: npb.ClassW, Seed: 1, Parallel: runner.DefaultWorkers()})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CompareRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if !r.ShapeOK {
			t.Errorf("%s: shape MISMATCH (time %.3f, inv %.3f, snoop %.3f)",
				r.Name, r.TimeOurs, r.InvOurs, r.SnoopOurs)
		}
	}
	for metric, c := range paperdata.Champions() {
		r, ok := byName[c.App]
		if !ok {
			t.Errorf("champion %s (%s) missing from the comparison", c.App, metric)
			continue
		}
		ours, known := map[string]float64{"time": r.TimeOurs, "inv": r.InvOurs, "snoop": r.SnoopOurs, "l2miss": r.L2Ours}[metric]
		if !known {
			t.Errorf("champion metric %q has no measured column", metric)
		} else if red := 1 - ours; red <= 0 {
			t.Errorf("champion %s (%s): measured reduction %.3f, want > 0", c.App, metric, red)
		}
	}
}

func TestCompareRejectsSplash(t *testing.T) {
	cfg := tinyConfig()
	cfg.Suite = "splash"
	cfg.Benchmarks = nil
	if _, err := Compare(cfg); err == nil {
		t.Error("compare accepted the splash suite")
	}
}
