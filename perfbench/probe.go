package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	randv2 "math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"tlbmap/internal/comm"
	"tlbmap/internal/core"
	"tlbmap/internal/mapping"
	"tlbmap/internal/mem"
	"tlbmap/internal/metrics"
	"tlbmap/internal/runner"
	"tlbmap/internal/serve"
	"tlbmap/internal/tlb"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
	"tlbmap/internal/wal"
)

// maxRecords caps the access stream the layer probes replay.
const maxRecords = 400_000

// probeBudget is how long each timing loop runs (at least one pass).
const probeBudget = 250 * time.Millisecond

// records is a workload's own access stream, threads interleaved in the
// order the probes replay it: the compiled trace of a simulator workload
// or the TLB samples a serve workload ships.
type records struct {
	threads int
	thread  []int32
	page    []vm.Page
	line    []mem.Line // physical cache line
	store   []bool
}

func (r *records) add(thread int32, page vm.Page, line mem.Line, store bool) {
	r.thread = append(r.thread, thread)
	r.page = append(r.page, page)
	r.line = append(r.line, line)
	r.store = append(r.store, store)
}

func (r *records) len() int { return len(r.thread) }

// recordsOf interleaves a compiled trace's data accesses round-robin in
// chunks of one trace quantum per thread, translating through the
// workload's own address space. A trace longer than maxRecords
// contributes every stride-th quantum of each thread, so the records
// span all of its phases rather than only its start.
func recordsOf(c *trace.Compiled, as *vm.AddressSpace) *records {
	r := &records{threads: c.NumThreads()}
	total := 0
	for t := 0; t < c.NumThreads(); t++ {
		for _, ev := range c.ThreadEvents(t) {
			if ev.Kind != trace.Compute {
				total++
			}
		}
	}
	stride := (total + maxRecords - 1) / maxRecords
	pos := make([]int, c.NumThreads())
	for progress, q := true, 0; progress && r.len() < maxRecords; q++ {
		progress = false
		for t := 0; t < c.NumThreads() && r.len() < maxRecords; t++ {
			evs := c.ThreadEvents(t)
			for n := 0; n < trace.DefaultQuantum && pos[t] < len(evs); pos[t]++ {
				ev := evs[pos[t]]
				if ev.Kind == trace.Compute {
					continue
				}
				n++
				if q%stride != 0 {
					continue
				}
				frame, ok := as.Lookup(ev.Addr.Page())
				if !ok {
					continue
				}
				phys := uint64(frame)<<vm.PageShift | ev.Addr.Offset()
				r.add(int32(t), ev.Addr.Page(), mem.Line(phys>>mem.LineShift), ev.Kind == trace.Store)
			}
			progress = progress || pos[t] < len(evs)
		}
	}
	return r
}

// probeInput is what the layer probes get from the workload.
type probeInput struct {
	recs *records
	// addMatrix is the workload's largest detected matrix; its non-zeros
	// are the increment stream of the matrix-add probe (nil = the probe's
	// own detection).
	addMatrix *comm.Matrix
	// smSim and hmSim are the workload's own similarity figures (0 = take
	// them from the probe's detection).
	smSim, hmSim float64
	// pipeLoop runs the open-loop generator over in-process pipes, for
	// workloads that have no generator of their own.
	pipeLoop bool
	// batch and queryEvery shape the serve probe's requests like the
	// workload's (0 = batches of 50, a query every 16).
	batch, queryEvery int
}

// runProbes times calls into each layer's public functions with the
// workload's own records and returns the per-layer metrics.
func runProbes(in probeInput, tr *tracer, work string) map[string]float64 {
	out := map[string]float64{}
	recs := in.recs
	machine := machineFor(recs.threads)

	// trace, sim, runner: the records as a workload of their own, detected
	// and replayed as two jobs on the worker pool.
	w := recordsWorkload(recs)
	opt := core.Options{Machine: machine}
	var sm, hm, oracle *core.Detection
	var replay core.RunMetrics
	st := stageTimes{start: time.Now()}
	pool := runner.Pool{Workers: simWorkers, Progress: func(done, total int) { st.done = append(st.done, time.Now()) }}
	err := runner.Run(pool, 2, func(i int) error {
		var err error
		if i == 0 {
			tr.do("probe.sim.detect", 0, func() { sm, hm, oracle, err = core.DetectAll(w, opt) })
			return err
		}
		var cw *core.CompiledWorkload
		tr.do("probe.trace.compile", 0, func() { cw = core.CompileWorkload(w, opt) })
		tr.do("probe.sim.replay", 0, func() { replay, err = cw.EvaluateMetrics(nil, opt) })
		return err
	})
	if err != nil {
		log.Fatalf("probe: records workload: %v", err)
	}
	pp := pipeline{stages: []stageTimes{st}}
	out["runner.busy_frac"], out["runner.tail_s"] = pp.runnerFigures()
	self, count := tr.totals()
	out["trace.compile_s"] = self["probe.trace.compile"].Seconds()
	out["trace.compiles"] = float64(count["probe.trace.compile"])
	out["sim.detect_s"] = self["probe.sim.detect"].Seconds()
	out["sim.replay_s"] = self["probe.sim.replay"].Seconds()
	// The replay makes one access per record.
	out["sim.events"] = float64(sm.Result.Accesses) + float64(recs.len())
	out["sim.cycles_total"] = float64(sm.Result.Cycles + replay.Cycles)
	out["sim.ns_per_event"] = out["sim.replay_s"] * 1e9 / float64(recs.len())
	out["comm.sm_similarity_mean"], out["comm.hm_similarity_mean"] = in.smSim, in.hmSim
	if in.smSim == 0 {
		out["comm.sm_similarity_mean"] = sm.Matrix.Similarity(oracle.Matrix)
		out["comm.hm_similarity_mean"] = hm.Matrix.Similarity(oracle.Matrix)
	}

	probeTLB(recs, out)
	probeMem(recs, machine, out)
	add := in.addMatrix
	if add == nil {
		add = sm.Matrix
	}
	probeComm(add, sm.Matrix, out)
	probeMapping(sm.Matrix, machine, tr, out)
	batch, every := in.batch, in.queryEvery
	if batch == 0 {
		batch, every = 50, 16
	}
	probeServe(recs, batch, every, work, out)
	if in.pipeLoop {
		probePipeLoop(recs, out)
	}
	out["sim.self_ns_per_event"] = out["sim.ns_per_event"] - out["tlb.lookup_ns"] - out["mem.access_ns"]
	return out
}

// machineFor is the simulated machine of n threads: the paper's
// Harpertown at 8, the canonical manycore machine from 32 (every record
// stream the probes get has one of these sizes).
func machineFor(n int) *topology.Machine {
	if n == 8 {
		return topology.Harpertown()
	}
	return topology.Manycore(n)
}

// recordsWorkload turns records back into a workload: each thread loads
// or stores the same cache lines in the same order, with pages remapped
// into a fresh allocation.
func recordsWorkload(r *records) core.Workload {
	return func(as *vm.AddressSpace) []trace.Program {
		index := map[vm.Page]int{}
		for _, p := range r.page {
			if _, ok := index[p]; !ok {
				index[p] = len(index)
			}
		}
		base := as.AllocPageAligned(int64(len(index)) << vm.PageShift)
		per := make([][]trace.Event, r.threads)
		for i := range r.thread {
			off := vm.Addr(uint64(r.line[i])&(1<<(vm.PageShift-mem.LineShift)-1)) << mem.LineShift
			addr := base + vm.Addr(index[r.page[i]])<<vm.PageShift + off
			kind := trace.Load
			if r.store[i] {
				kind = trace.Store
			}
			per[r.thread[i]] = append(per[r.thread[i]], trace.Event{Addr: addr, Kind: kind})
		}
		programs := make([]trace.Program, r.threads)
		for t := range programs {
			evs := per[t]
			programs[t] = func(th *trace.Thread) {
				for _, e := range evs {
					if e.Kind == trace.Load {
						th.Load(e.Addr)
					} else {
						th.Store(e.Addr)
					}
				}
			}
		}
		return programs
	}
}

// timed runs pass until probeBudget has elapsed, at least once, and
// returns the total time.
func timed(pass func()) time.Duration {
	start := time.Now()
	for pass(); time.Since(start) < probeBudget; {
		pass()
	}
	return time.Since(start)
}

// probeTLB replays the records through one fresh TLB hierarchy per
// thread: Lookup every access, Insert on a miss.
func probeTLB(r *records, out map[string]float64) {
	var lookups, misses uint64
	d := timed(func() {
		hs := make([]*tlb.Hierarchy, r.threads)
		for i := range hs {
			hs[i] = tlb.NewHierarchy(tlb.DefaultConfig, tlb.Config{})
		}
		for i, t := range r.thread {
			h := hs[t]
			if _, where := h.Lookup(r.page[i]); where == tlb.MissAll {
				h.Insert(vm.Translation{Page: r.page[i], Frame: vm.Frame(r.page[i])})
				misses++
			}
		}
		lookups += uint64(len(r.thread))
	})
	out["tlb.lookup_ns"] = float64(d.Nanoseconds()) / float64(lookups)
	out["tlb.lookups"] = float64(lookups)
	out["tlb.miss_ratio"] = float64(misses) / float64(lookups)
}

// probeMem replays the records through a fresh cache hierarchy, each
// thread on its own core.
func probeMem(r *records, m *topology.Machine, out map[string]float64) {
	var accesses, l2miss, l2hit, snoops uint64
	d := timed(func() {
		sys := mem.NewSystem(m, mem.DefaultL1Config, mem.DefaultL2Config)
		clock := make([]uint64, m.NumCores())
		for i, t := range r.thread {
			if r.store[i] {
				clock[t] += sys.Write(int(t), r.line[i], clock[t])
			} else {
				clock[t] += sys.Read(int(t), r.line[i], clock[t])
			}
		}
		c := sys.TotalCounters()
		accesses += uint64(len(r.thread))
		l2miss += c.Get(metrics.L2Misses)
		l2hit += c.Get(metrics.L2Hits)
		snoops += c.Get(metrics.SnoopTransactions)
	})
	out["mem.access_ns"] = float64(d.Nanoseconds()) / float64(accesses)
	out["mem.accesses"] = float64(accesses)
	out["mem.l2_miss_ratio"] = float64(l2miss) / float64(l2miss+l2hit)
	out["mem.snoops_per_kaccess"] = 1000 * float64(snoops) / float64(accesses)
}

// probeComm times Matrix.Add over a detected matrix's non-zeros into a
// fresh matrix of the same size, and one query epoch (Sub, Clone,
// Similarity) at the records' size.
func probeComm(add, epochM *comm.Matrix, out map[string]float64) {
	type inc struct {
		i, j int
		w    uint64
	}
	var incs []inc
	add.ForEach(func(i, j int, w uint64) { incs = append(incs, inc{i, j, w}) })
	var calls int
	d := timed(func() {
		m := comm.NewMatrix(add.N())
		for _, x := range incs {
			m.Add(x.i, x.j, x.w)
		}
		calls += len(incs)
	})
	out["comm.matrix_add_ns"] = float64(d.Nanoseconds()) / float64(max(calls, 1))
	out["comm.matrix_nnz"] = float64(add.NNZ())

	prev := comm.NewMatrix(epochM.N())
	k := 0
	epochM.ForEach(func(i, j int, w uint64) {
		if k%2 == 0 {
			prev.Add(i, j, w/2)
		}
		k++
	})
	prevDelta := epochM.Sub(prev)
	var epochs int
	d = timed(func() {
		delta := epochM.Sub(prev)
		epochM.Clone()
		delta.Similarity(prevDelta)
		epochs++
	})
	out["comm.epoch_us"] = float64(d.Microseconds()) / float64(epochs)
}

// probeMapping times the size-dispatching mapper on the records' matrix and
// the online mapper over a series of perturbed epochs of it.
func probeMapping(m *comm.Matrix, machine *topology.Machine, tr *tracer, out map[string]float64) {
	const calls = 8
	start := time.Now()
	for i := 0; i < calls; i++ {
		tr.do("probe.mapping.map", 0, func() {
			if _, err := mapping.NewAuto().Map(m, machine); err != nil {
				log.Fatalf("probe: map: %v", err)
			}
		})
	}
	out["mapping.map_s"] = since(start)
	out["mapping.map_calls"] = calls

	// Epochs as a query sees them: a thinned, noisy sample of the
	// pattern, so the mapper keeps confirming or revising its placement.
	rng := randv2.New(randv2.NewPCG(1, 2))
	om := mapping.NewOnlineMapper(machine, 0)
	var observes int
	d := timed(func() {
		epoch := comm.NewMatrix(m.N())
		m.ForEach(func(i, j int, w uint64) {
			if rng.IntN(4) == 0 {
				epoch.Add(i, j, max(1, w/64))
			}
		})
		if _, err := om.Observe(epoch); err != nil {
			log.Fatalf("probe: observe: %v", err)
		}
		observes++
	})
	out["mapping.observe_us"] = float64(d.Microseconds()) / float64(observes)
}

// batches cuts the records into ingest batches of TLB samples.
func batches(r *records, size int) [][]serve.Event {
	var out [][]serve.Event
	for i := 0; i < r.len(); i += size {
		b := make([]serve.Event, 0, size)
		for k := i; k < i+size && k < r.len(); k++ {
			b = append(b, serve.Event{Thread: r.thread[k], Page: r.page[k]})
		}
		out = append(out, b)
	}
	return out
}

// eLine renders one batch as a wire-protocol E request.
func eLine(b []serve.Event) []byte {
	line := []byte{'E'}
	for _, e := range b {
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(e.Thread), 10)
		line = append(line, ':')
		line = strconv.AppendUint(line, uint64(e.Page), 10)
	}
	return append(line, '\n')
}

// probeServe drives an in-process server with the records as TLB samples:
// the connection path over net.Pipe, direct IngestFrom and Query calls,
// and the durable path's WAL and recovery.
func probeServe(r *records, batchSize, queryEvery int, work string, out map[string]float64) {
	bs := batches(r, batchSize)
	events := float64(r.len())
	srv := serve.New(serve.Config{})

	// ServeConn: one pipelined connection, responses read concurrently.
	lines := make([][]byte, len(bs))
	for i, b := range bs {
		lines[i] = eLine(b)
	}
	client, server := net.Pipe()
	served := make(chan struct{})
	go func() {
		srv.ServeConn(server)
		close(served)
	}()
	rd, w := bufio.NewReader(client), bufio.NewWriter(client)
	fmt.Fprintf(w, "HELLO probe-conn %d\n", r.threads)
	w.Flush()
	if resp, err := rd.ReadString('\n'); err != nil || !strings.HasPrefix(resp, "OK") {
		log.Fatalf("probe: HELLO: %q %v", resp, err)
	}
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		for range bs {
			resp, err := rd.ReadString('\n')
			if err != nil || !strings.HasPrefix(resp, "OK") {
				done <- fmt.Errorf("E response %q: %v", resp, err)
				return
			}
		}
		done <- nil
	}()
	for i, line := range lines {
		w.Write(line)
		if i%window == window-1 {
			w.Flush()
		}
	}
	w.Flush()
	if err := <-done; err != nil {
		log.Fatalf("probe: %v", err)
	}
	out["serve.conn_ns_per_event"] = float64(time.Since(start).Nanoseconds()) / events
	lagStart := time.Now()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); pause(20 * time.Microsecond) {
		if st := srv.Stats(); st.Applied+st.Dropped == st.Ingested {
			break
		}
	}
	out["serve.apply_lag_ms"] = float64(time.Since(lagStart).Microseconds()) / 1000
	client.Close()
	<-served

	// IngestFrom and Query called directly, a query every queryEvery
	// batches as the workload sends them.
	if err := srv.CreateTenant("probe-direct", r.threads); err != nil {
		log.Fatalf("probe: %v", err)
	}
	var ingest, query time.Duration
	var queries int
	for i, b := range bs {
		t := time.Now()
		if err := srv.IngestFrom("probe-direct", "", 0, b); err != nil {
			log.Fatalf("probe: ingest: %v", err)
		}
		ingest += time.Since(t)
		if i%queryEvery == queryEvery-1 {
			t = time.Now()
			if _, err := srv.Query(context.Background(), "probe-direct"); err != nil {
				log.Fatalf("probe: query: %v", err)
			}
			query += time.Since(t)
			queries++
		}
	}
	out["serve.ingest_ns_per_event"] = float64(ingest.Nanoseconds()) / events
	out["serve.query_us"] = float64(query.Microseconds()) / float64(max(queries, 1))
	st := srv.Stats()
	out["serve.overloads"] = float64(st.Overloads)
	out["serve.degraded"] = float64(st.Degraded)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Fatalf("probe: drain: %v", err)
	}

	// Durable path: ingest into a state directory without snapshots, let
	// the interval flusher write the WAL, read its size, drain, and time a
	// fresh Open recovering the directory.
	dir := filepath.Join(work, "probe-state")
	os.RemoveAll(dir)
	dsrv, err := serve.Open(serve.Config{Dir: dir, Sync: wal.SyncInterval, SnapshotEvery: 1 << 40})
	if err != nil {
		log.Fatalf("probe: open: %v", err)
	}
	if err := dsrv.CreateTenant("probe-durable", r.threads); err != nil {
		log.Fatalf("probe: %v", err)
	}
	for _, b := range bs {
		if err := dsrv.IngestFrom("probe-durable", "", 0, b); err != nil {
			log.Fatalf("probe: durable ingest: %v", err)
		}
	}
	time.Sleep(250 * time.Millisecond) // two flush intervals
	var walBytes int64
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(path, ".wal") {
			walBytes += info.Size()
		}
		return nil
	})
	if err := dsrv.Drain(ctx); err != nil {
		log.Fatalf("probe: durable drain: %v", err)
	}
	out["wal.bytes_per_event"] = float64(walBytes) / events
	t := time.Now()
	rsrv, err := serve.Open(serve.Config{Dir: dir})
	if err != nil {
		log.Fatalf("probe: recover: %v", err)
	}
	out["serve.recover_s"] = since(t)
	if err := rsrv.Drain(ctx); err != nil {
		log.Fatalf("probe: recovered drain: %v", err)
	}
	probeWAL(bs, filepath.Join(work, "probe-wal"), walBytes/int64(max(len(bs), 1)), out)
}

// probeWAL appends one record per batch, of the size mapperd's WAL records
// have, syncing every 16 appends.
func probeWAL(bs [][]serve.Event, dir string, recordBytes int64, out map[string]float64) {
	os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		log.Fatalf("probe: wal: %v", err)
	}
	defer l.Close()
	payload := make([]byte, max(recordBytes-16, 1))
	var appends, syncs int
	var appendT, syncT time.Duration
	for appendT+syncT < probeBudget || appends < len(bs) {
		t := time.Now()
		if _, err := l.AppendBuffered(payload); err != nil {
			log.Fatalf("probe: append: %v", err)
		}
		appendT += time.Since(t)
		appends++
		if appends%16 == 0 {
			t = time.Now()
			if err := l.Sync(); err != nil {
				log.Fatalf("probe: sync: %v", err)
			}
			syncT += time.Since(t)
			syncs++
		}
	}
	out["wal.append_ns"] = float64(appendT.Nanoseconds()) / float64(appends)
	out["wal.sync_us"] = float64(syncT.Microseconds()) / float64(max(syncs, 1))
}

// probePipeLoop runs the open-loop generator against an in-process server
// over net.Pipe, for the generator's own lateness.
func probePipeLoop(r *records, out map[string]float64) {
	srv := serve.New(serve.Config{})
	var conns sync.WaitGroup
	dial := func() (net.Conn, error) {
		c, s := net.Pipe()
		conns.Add(1)
		go func() {
			defer conns.Done()
			srv.ServeConn(s)
		}()
		return c, nil
	}
	bs := batches(r, 50)
	convs := make([]*conversation, 2)
	for c := range convs {
		conv := &conversation{tenant: fmt.Sprintf("probe-loop-%d", c), threads: r.threads}
		for i := c; i < len(bs) && len(conv.lines) < 4000; i += 2 {
			conv.lines = append(conv.lines, request{line: eLine(bs[i]), events: len(bs[i])})
		}
		convs[c] = conv
	}
	ph, err := openLoop(dial, convs, 8000, nil)
	if err != nil {
		log.Fatalf("probe: pipe loop: %v", err)
	}
	out["loadgen.late_us_p99"] = percentile(ph.lateUs, 0.99).Value
	conns.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Drain(ctx)
}
