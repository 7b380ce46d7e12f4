package core

import (
	"errors"
	"testing"

	"tlbmap/internal/check"
	"tlbmap/internal/fault"
	"tlbmap/internal/sim"
	"tlbmap/internal/topology"
)

// probe records what the invariant suite saw of the runs it was armed on.
type probe struct {
	armed int
	last  *sim.Result
}

// probedSuite is the full check suite (mem.Observer included, through the
// embedding) with Begin counted and the final result kept.
type probedSuite struct {
	*check.Suite
	p *probe
}

func (s probedSuite) Begin(env sim.CheckEnv) { s.p.armed++; s.Suite.Begin(env) }

func (s probedSuite) Finish(res *sim.Result) error {
	s.p.last = res
	return s.Suite.Finish(res)
}

// installProbe makes every run that honours Options.Check report to the
// returned probe for the rest of the test.
func installProbe(t *testing.T) *probe {
	p := &probe{}
	saved := newChecker
	newChecker = func() sim.Checker { return probedSuite{check.NewSuite(), p} }
	t.Cleanup(func() { newChecker = saved })
	return p
}

// entryPoint reduces one public entry point to the single run it makes:
// that run's cycles, and its fault counters where the entry point reports
// them (nil otherwise).
type entryPoint struct {
	name string
	run  func(t *testing.T, p *probe, opt Options) (cycles uint64, faults *fault.Stats, err error)
}

func detectionRun(d *Detection, err error) (uint64, *fault.Stats, error) {
	if err != nil {
		return 0, nil, err
	}
	return d.Result.Cycles, &d.FaultStats, nil
}

func resultRun(res *sim.Result, err error) (uint64, *fault.Stats, error) {
	if err != nil {
		return 0, nil, err
	}
	return res.Cycles, nil, nil
}

func metricsRun(m RunMetrics, err error) (uint64, *fault.Stats, error) {
	return m.Cycles, nil, err
}

var entryPoints = []entryPoint{
	{"Detect", func(t *testing.T, p *probe, opt Options) (uint64, *fault.Stats, error) {
		return detectionRun(Detect(tinyWorkload, HM, opt))
	}},
	{"DetectAll", func(t *testing.T, p *probe, opt Options) (uint64, *fault.Stats, error) {
		_, hm, _, err := DetectAll(tinyWorkload, opt)
		return detectionRun(hm, err)
	}},
	{"Evaluate", func(t *testing.T, p *probe, opt Options) (uint64, *fault.Stats, error) {
		return resultRun(Evaluate(tinyWorkload, nil, opt))
	}},
	{"EvaluateMetrics", func(t *testing.T, p *probe, opt Options) (uint64, *fault.Stats, error) {
		return metricsRun(EvaluateMetrics(tinyWorkload, nil, opt))
	}},
	{"CompiledWorkload.EvaluateMetrics", func(t *testing.T, p *probe, opt Options) (uint64, *fault.Stats, error) {
		return metricsRun(CompileWorkload(tinyWorkload, opt).EvaluateMetrics(nil, opt))
	}},
	{"EvaluateWithDetection", func(t *testing.T, p *probe, opt Options) (uint64, *fault.Stats, error) {
		return detectionRun(EvaluateWithDetection(tinyWorkload, []int{7, 6, 5, 4, 3, 2, 1, 0}, SM, opt))
	}},
	{"EvaluateWithDynamicMigration", func(t *testing.T, p *probe, opt Options) (uint64, *fault.Stats, error) {
		opt.MigrationInterval = 100_000
		r, err := EvaluateWithDynamicMigration(twoPhaseWorkload, HM, opt)
		if err != nil {
			return 0, nil, err
		}
		return r.Result.Cycles, &r.FaultStats, nil
	}},
	{"MeasureTraceSize", func(t *testing.T, p *probe, opt Options) (uint64, *fault.Stats, error) {
		// The trace size does not move under TLB faults, so the run's
		// cycles are read off the armed checker.
		opt.Check = true
		p.last = nil
		if _, _, err := MeasureTraceSize(tinyWorkload, opt); err != nil {
			return 0, nil, err
		}
		if p.last == nil {
			t.Fatal("checked MeasureTraceSize run reported no result")
		}
		return p.last.Cycles, nil, nil
	}},
	{"ProfileData", func(t *testing.T, p *probe, opt Options) (uint64, *fault.Stats, error) {
		prof, err := ProfileData(tinyWorkload, opt)
		if err != nil {
			return 0, nil, err
		}
		return prof.Result.Cycles, nil, nil
	}},
	{"EvaluateNUMA", func(t *testing.T, p *probe, opt Options) (uint64, *fault.Stats, error) {
		opt.Machine = topology.NUMA(2)
		return resultRun(EvaluateNUMA(nodeLocalWorkload, nil, nil, opt))
	}},
}

// Every entry point must honour the three run-wide options: Check arms
// the invariant suite on its run, a closed Interrupt cancels it, and a
// fault plan perturbs it.
func TestEveryEntryPointHonoursRunOptions(t *testing.T) {
	shootdowns, err := fault.ParsePlan("shootdown:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	close(closed)
	for _, ep := range entryPoints {
		t.Run(ep.name+"/Check", func(t *testing.T) {
			p := installProbe(t)
			if _, _, err := ep.run(t, p, Options{Check: true}); err != nil {
				t.Fatal(err)
			}
			if p.armed != 1 {
				t.Errorf("checker armed on %d runs, want 1", p.armed)
			}
		})
		t.Run(ep.name+"/Interrupt", func(t *testing.T) {
			p := installProbe(t)
			if _, _, err := ep.run(t, p, Options{Interrupt: closed}); !errors.Is(err, sim.ErrInterrupted) {
				t.Errorf("err = %v, want sim.ErrInterrupted", err)
			}
		})
		t.Run(ep.name+"/Faults", func(t *testing.T) {
			p := installProbe(t)
			clean, _, err := ep.run(t, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			faulted, stats, err := ep.run(t, p, Options{Faults: shootdowns})
			if err != nil {
				t.Fatal(err)
			}
			if stats != nil && stats.Shootdowns == 0 {
				t.Error("no shootdowns counted at intensity 1")
			}
			if faulted == clean {
				t.Errorf("shootdown storm left the run at %d cycles, same as the clean run", clean)
			}
		})
	}
}
