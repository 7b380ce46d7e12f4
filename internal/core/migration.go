package core

import (
	"tlbmap/internal/comm"
	"tlbmap/internal/fault"
	"tlbmap/internal/mapping"
	"tlbmap/internal/sim"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// MigrationReport is the outcome of a dynamically-migrated run.
type MigrationReport struct {
	// Result is the simulation result (Result.Migrations counts moves).
	Result *sim.Result
	// Decisions lists every controller decision, in epoch order.
	Decisions []mapping.OnlineDecision
	// Remaps is the number of placements the controller issued.
	Remaps int
	// Fallbacks is how many times low confidence made the controller
	// retreat to the baseline placement (see mapping.OnlineMapper).
	Fallbacks int
	// FinalConfidence is the controller's pattern-stability score at the
	// end of the run.
	FinalConfidence float64
	// FaultStats counts the injections performed when Options.Faults was
	// armed (zero otherwise).
	FaultStats fault.Stats
}

// EvaluateWithDynamicMigration runs the workload with the full online
// pipeline the paper leaves as future work: a live detection mechanism
// accumulates the communication matrix; every Options.ScanInterval-aligned
// migration epoch the controller inspects the epoch's delta, and when the
// pattern has changed — and the predicted saving beats the migration cost —
// the engine migrates the threads mid-run (cold caches and TLBs included).
//
// The run starts on the identity placement, exactly like an application
// whose initial placement nobody tuned. That placement doubles as the
// controller's low-confidence fallback: when Options.Faults pollutes the
// detected pattern past the confidence gate, the controller retreats to
// what the OS would have done rather than chasing noise.
func EvaluateWithDynamicMigration(w Workload, mech Mechanism, opt Options) (*MigrationReport, error) {
	opt = opt.withDefaults()
	as := vm.NewAddressSpace()
	programs := w(as)
	det, err := newDetector(mech, len(programs), opt)
	if err != nil {
		return nil, err
	}
	// The online controller reads the wrapped detector's published view, so
	// matrix-publication faults (dropped scans, bit decay) reach the
	// controller exactly as they would reach a real migration daemon.
	inj := injection(opt)
	wrapped := inj.WrapDetector(det)

	report := &MigrationReport{}
	online := mapping.NewOnlineMapper(opt.Machine, 0.6)
	identity := make([]int, opt.Machine.NumCores())
	for i := range identity {
		identity[i] = i
	}
	online.Fallback = identity
	switch {
	case opt.MinConfidence < 0:
		online.MinConfidence = 0 // gate disabled
	case opt.MinConfidence > 0:
		online.MinConfidence = opt.MinConfidence
	}
	var prev *comm.Matrix
	migrator := func(now uint64, placement []int) []int {
		cur := wrapped.Matrix()
		if cur == nil {
			return nil
		}
		epoch := cur.Sub(prev)
		prev = cur.Clone()
		dec, err := online.Observe(epoch)
		if err != nil {
			return nil
		}
		report.Decisions = append(report.Decisions, dec)
		if !dec.Remap {
			return nil
		}
		report.Remaps++
		return dec.Placement
	}

	res, err := run(opt, as, trace.NewTeam(programs, 0), inj, sim.Config{
		TLBMode: tlbModeFor(mech), Detector: wrapped, Migrator: migrator,
	})
	if err != nil {
		return nil, err
	}
	report.Result = res
	report.Fallbacks = online.Fallbacks()
	report.FinalConfidence = online.Confidence()
	report.FaultStats = inj.Stats()
	return report, nil
}
