package harness

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"tlbmap/internal/core"
	"tlbmap/internal/mapping"
	"tlbmap/internal/npb"
	"tlbmap/internal/runner"
)

// refRunPerformance is RunPerformance as it was before identical
// placements shared one replay: every job replays its trace under all
// three placements unconditionally. It is the reference the reuse is
// checked against.
func refRunPerformance(cfg Config) ([]PerfResult, error) {
	cfg = cfg.withDefaults()
	machine := cfg.Machine()
	preps, err := runner.Map(cfg.pool("detect"), len(cfg.Benchmarks), func(i int) (perfPrep, error) {
		name := cfg.Benchmarks[i]
		w, err := cfg.workload(name, cfg.Seed)
		if err != nil {
			return perfPrep{}, err
		}
		sm, hm, _, err := core.DetectAll(w, cfg.Options)
		if err != nil {
			return perfPrep{}, err
		}
		edmonds := mapping.NewEdmonds()
		placeSM, err := edmonds.Map(sm.Matrix, machine)
		if err != nil {
			return perfPrep{}, err
		}
		placeHM, err := edmonds.Map(hm.Matrix, machine)
		if err != nil {
			return perfPrep{}, err
		}
		return perfPrep{
			name:     name,
			smMatrix: sm.Matrix,
			result: PerfResult{
				Name: name,
				Stats: map[MappingLabel]*MappingStats{
					OSLabel: {}, SMLabel: {}, HMLabel: {},
				},
				PlacementSM: placeSM,
				PlacementHM: placeHM,
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	reps := cfg.Repetitions
	runs, err := runner.Map(cfg.pool("perf"), len(preps)*reps, func(j int) (repMetrics, error) {
		p := preps[j/reps]
		rep := j % reps
		wr, err := cfg.workload(p.name, cfg.jobSeed(p.name, "workload", rep))
		if err != nil {
			return repMetrics{}, err
		}
		cw := core.CompileWorkload(wr, cfg.Options)
		opt := cfg.Options
		opt.JitterSeed = cfg.jobSeed(p.name, "jitter", rep)
		osPlace, err := mapping.NewOSScheduler(cfg.jobSeed(p.name, "os", rep)).Map(p.smMatrix, machine)
		if err != nil {
			return repMetrics{}, err
		}
		var out repMetrics
		for _, run := range []struct {
			place []int
			dst   *core.RunMetrics
		}{
			{osPlace, &out.os},
			{p.result.PlacementSM, &out.sm},
			{p.result.PlacementHM, &out.hm},
		} {
			if *run.dst, err = cw.EvaluateMetrics(run.place, opt); err != nil {
				return repMetrics{}, err
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]PerfResult, 0, len(preps))
	for bi, p := range preps {
		pr := p.result
		for rep := 0; rep < reps; rep++ {
			r := runs[bi*reps+rep]
			pr.Stats[OSLabel].record(r.os)
			pr.Stats[SMLabel].record(r.sm)
			pr.Stats[HMLabel].record(r.hm)
		}
		out = append(out, pr)
	}
	return out, nil
}

// TestPlacementReuseMatchesReference checks that replaying each distinct
// placement once gives exactly the results of replaying all three. At
// class S, EP and SP map the SM and HM matrices to the same placement
// (HM's replay is reused) and IS and LU to different ones (all three are
// replayed); the test asserts that split so both branches stay covered.
func TestPlacementReuseMatchesReference(t *testing.T) {
	sameSMHM := map[string]bool{"EP": true, "IS": false, "LU": false, "SP": true}
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			var mu sync.Mutex
			reused := map[string]int{} // benchmark -> jobs that reused HM
			cfg := Config{
				Class:       npb.ClassS,
				Benchmarks:  []string{"EP", "IS", "LU", "SP"},
				Repetitions: 3,
				Seed:        seed,
				Parallel:    runner.DefaultWorkers(),
				Progress: func(format string, args ...any) {
					line := fmt.Sprintf(format, args...)
					if strings.HasPrefix(line, "perf ") && strings.Contains(line, "HM reused SM") {
						mu.Lock()
						reused[strings.Fields(line)[1]]++
						mu.Unlock()
					}
				},
			}
			got, err := RunPerformance(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Progress = nil
			want, err := refRunPerformance(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("PerfResults differ from the three-replay reference")
			}
			if g, w := RenderTable4(got), RenderTable4(want); g != w {
				t.Errorf("Table IV differs:\n%s\nvs reference:\n%s", g, w)
			}
			if g, w := RenderTable5(got), RenderTable5(want); g != w {
				t.Errorf("Table V differs:\n%s\nvs reference:\n%s", g, w)
			}
			for _, r := range got {
				same := slices.Equal(r.PlacementSM, r.PlacementHM)
				if same != sameSMHM[r.Name] {
					t.Errorf("%s: SM placement %v, HM placement %v; want equal = %v",
						r.Name, r.PlacementSM, r.PlacementHM, sameSMHM[r.Name])
				}
				wantReused := 0
				if same {
					wantReused = cfg.Repetitions
				}
				if reused[r.Name] != wantReused {
					t.Errorf("%s: %d jobs reported HM reusing SM, want %d", r.Name, reused[r.Name], wantReused)
				}
			}
		})
	}
}
