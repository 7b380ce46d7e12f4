package comm

import (
	"testing"

	"tlbmap/internal/tlb"
	"tlbmap/internal/vm"
)

// benchTLBs builds a TLB view with every TLB warmed with fill pages. Pages
// are consecutive per core (core i holds i*Entries .. i*Entries+fill-1), so
// they spread across sets round-robin: fill = Entries leaves every set full,
// small fills occupy only the first few sets (the elision path), and no page
// is shared between cores.
func benchTLBs(cores, fill int) TLBView {
	tlbs := make(TLBView, cores)
	for i := range tlbs {
		tlbs[i] = tlb.New(tlb.DefaultConfig)
		for p := 0; p < fill; p++ {
			tlbs[i].Insert(vm.Translation{Page: vm.Page(i*tlb.DefaultConfig.Entries + p), Frame: vm.Frame(p)})
		}
	}
	return tlbs
}

// BenchmarkDetectors measures the per-event host cost of each detection
// routine in isolation and reports an events/sec custom metric (one
// "event" is one hook invocation: a miss for SM, a scan for HM, an access
// for the oracle). ci.sh runs it once as a smoke.
func BenchmarkDetectors(b *testing.B) {
	const cores = 8
	b.Run("SM/miss", func(b *testing.B) {
		tlbs := benchTLBs(cores, tlb.DefaultConfig.Entries)
		d := NewSMDetector(cores, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.OnTLBMiss(i%cores, vm.Page(i), tlbs)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("HM/scan-full", func(b *testing.B) {
		tlbs := benchTLBs(cores, tlb.DefaultConfig.Entries)
		d := NewHMDetector(cores, 1)
		d.MaybeScan(1, tlbs) // arming call: the first MaybeScan never scans
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.MaybeScan(uint64(2*i+4), tlbs)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("HM/scan-sparse", func(b *testing.B) {
		// Two resident pages per TLB: the empty-set elision path.
		tlbs := benchTLBs(cores, 2)
		d := NewHMDetector(cores, 1)
		d.MaybeScan(1, tlbs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.MaybeScan(uint64(2*i+4), tlbs)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
	// The indexed variants measure the presence-index scan against the
	// pairwise scans above on identical fills: the same TLB contents,
	// attached to an index the detector answers from.
	for _, fc := range []struct {
		name string
		fill int
	}{
		{"dense", tlb.DefaultConfig.Entries},
		{"sparse", 2},
	} {
		fc := fc
		b.Run("HM/scan-indexed/"+fc.name, func(b *testing.B) {
			tlbs := benchTLBs(cores, fc.fill)
			ix := tlb.NewPresenceIndex(cores)
			for _, tl := range tlbs {
				ix.Attach(tl)
			}
			d := NewHMDetector(cores, 1)
			d.UsePresenceIndex(ix)
			d.MaybeScan(1, tlbs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.MaybeScan(uint64(2*i+4), tlbs)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			if d.IndexedScans() != d.Searches() {
				b.Fatalf("only %d/%d scans were indexed", d.IndexedScans(), d.Searches())
			}
		})
	}
	b.Run("oracle/access", func(b *testing.B) {
		d := NewOracleDetector(cores, PageGranularity)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A strided walk over 512 pages by rotating threads: exercises
			// both the same-thread fast path and history pushes.
			d.OnAccess(i%cores, vm.Addr(uint64(i%512+1)<<12|uint64(i)&0xfc0))
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
}
