package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tlbmap/internal/comm"
	"tlbmap/internal/core"
	"tlbmap/internal/harness"
	"tlbmap/internal/mapping"
	"tlbmap/internal/metrics"
	"tlbmap/internal/npb"
	"tlbmap/internal/paperdata"
	"tlbmap/internal/runner"
	"tlbmap/internal/sim"
	"tlbmap/internal/topology"
	"tlbmap/internal/trace"
	"tlbmap/internal/vm"
)

// simWorkers is the simulation worker count: the host has two cores.
const simWorkers = 2

// simSetupReps is how many set-up-only children a simulator run starts
// before the evaluating one; it reports the median set-up of all of them.
const simSetupReps = 5

// Scale-study sweep of the manycore workload.
var (
	manycoreBenches = []string{"CG", "LU"}
	manycoreCores   = []int{256, 1024}
	manycoreMappers = []string{"multilevel", "greedy"}
)

// iterResult is one untraced evaluation as the child reports it.
type iterResult struct {
	Wall, CPU   float64
	Jobs, Fails int64
	Problems    []string
	Digest      string
	CostRatio   float64 // geometric mean of mapped / identity cost
	TimeRatio   float64 // paper-w: geometric mean of SM / OS cycles
	PaperErr    float64 // paper-w: mean |ratio - paper's ratio|
	Kernels     int
}

// tracedResult is the traced run's per-layer figures from the child.
type tracedResult struct {
	Wall   float64
	Digest string
	Layer  map[string]float64
	Ledger ledger
}

// runSimWorkload drives a simulator workload in child processes: set-up
// is timed over several fresh starts, the last of which runs the measured
// evaluations.
func runSimWorkload(e env) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	for i := 0; i < simSetupReps; i++ {
		c, err := startSimChild(e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.ready)
		if err := c.exit(); err != nil {
			return nil, err
		}
	}
	c, err := startSimChild(e)
	if err != nil {
		return nil, err
	}
	setups = append(setups, c.ready)
	out.e2e["setup_s"] = median(setups)
	out.note("setup_starts", float64(len(setups)), "count", fmt.Sprintf("set-up times %.3v s; median reported", setups))
	cpu0 := selfCPU()
	iters, traced, rss, err := c.evaluate()
	if err != nil {
		return nil, err
	}
	out.e2e["peak_rss_mb"] = rss
	loadCPU := selfCPU() - cpu0

	var walls, cpus []float64
	for i, r := range iters {
		walls, cpus = append(walls, r.Wall), append(cpus, r.CPU)
		out.attempted += r.Jobs
		out.failed += r.Fails
		out.problems = append(out.problems, r.Problems...)
		out.check(r.Digest == iters[0].Digest, "evaluation %d digest %s differs from the first %s", i, r.Digest, iters[0].Digest)
	}
	first := iters[0]
	out.check(first.Kernels == wantKernels(e.workload), "%d kernels evaluated, want %d", first.Kernels, wantKernels(e.workload))
	checkDigestStore(out, e, first.Digest)
	out.e2e["wall_s"] = median(walls)
	out.e2e["cpu_s"] = median(cpus)
	out.e2e["map_cost_ratio_gmean"] = first.CostRatio
	out.note("evaluations", float64(len(iters)), "count", fmt.Sprintf("walls %.3v s, cpus %.3v s; medians reported", walls, cpus))
	out.report = append(out.report, "sim_digest               "+first.Digest)
	if e.workload == "paper-w" {
		out.note("sm_time_ratio_gmean", first.TimeRatio, "ratio", "SM-mapped / OS simulated cycles, geometric mean over nine kernels")
		out.note("paper_time_abs_err", first.PaperErr, "ratio", "mean |ratio - paperdata.NormalizedSM|")
	}
	if traced != nil {
		out.check(traced.Digest == first.Digest, "traced evaluation digest %s differs from untraced %s", traced.Digest, first.Digest)
		for k, v := range traced.Layer {
			out.layer[k] = v
		}
		out.layer["trace.overhead_s"] = traced.Wall - first.Wall
		out.layer["loadgen.cpu_s"] = loadCPU
		l := traced.Ledger
		out.ledger = &l
	}
	return out, nil
}

func wantKernels(workload string) int {
	if workload == "paper-w" {
		return len(npb.Names())
	}
	return len(manycoreBenches) * len(manycoreCores) * len(manycoreMappers)
}

// checkDigestStore compares the simulated-statistics digest with the one
// an earlier run of the same source tree, workload and seed stored, so
// every run of one commit is checked to simulate identically.
func checkDigestStore(out *outcome, e env, digest string) {
	dir := filepath.Join(e.work, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		out.check(false, "digest store: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d", strings.TrimPrefix(treeHash(), "tree:"), e.workload, e.seed))
	if prev, err := os.ReadFile(path); err == nil {
		out.check(string(prev) == digest, "digest %s differs from %s stored by an earlier run of this tree", digest, prev)
		return
	}
	if err := os.WriteFile(path, []byte(digest), 0o644); err != nil {
		out.check(false, "digest store: %v", err)
	}
}

// simChild is one started simulator process.
type simChildProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
	ready float64 // seconds from start until it reported ready
}

func startSimChild(e env) (*simChildProc, error) {
	trace := "0"
	if e.traced {
		trace = "1"
	}
	cmd := child(filepath.Join(e.bin, "perfbench"), "sim",
		"-workload", e.workload, "-seed", fmt.Sprint(e.seed), "-seconds", fmt.Sprint(e.seconds),
		"-trace", trace, "-work", e.work)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &simChildProc{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)}
	c.out.Buffer(make([]byte, 1<<16), 1<<24)
	if !c.out.Scan() || c.out.Text() != "ready" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("simulator child did not report ready")
	}
	c.ready = since(start)
	return c, nil
}

// evaluate starts the child's evaluations and collects what it reports.
// On any error the child is killed and reaped.
func (c *simChildProc) evaluate() (iters []iterResult, traced *tracedResult, rss float64, err error) {
	defer func() {
		if err != nil {
			c.cmd.Process.Kill()
			c.cmd.Wait()
		}
	}()
	if _, err = io.WriteString(c.stdin, "go\n"); err != nil {
		return nil, nil, 0, err
	}
	for c.out.Scan() {
		kind, body, _ := strings.Cut(c.out.Text(), " ")
		switch kind {
		case "iter":
			var r iterResult
			if err = json.Unmarshal([]byte(body), &r); err != nil {
				return nil, nil, 0, fmt.Errorf("child iteration: %w", err)
			}
			iters = append(iters, r)
		case "rss":
			if err = json.Unmarshal([]byte(body), &rss); err != nil {
				return nil, nil, 0, fmt.Errorf("child peak RSS: %w", err)
			}
		case "traced":
			traced = new(tracedResult)
			if err = json.Unmarshal([]byte(body), traced); err != nil {
				return nil, nil, 0, fmt.Errorf("child traced result: %w", err)
			}
		default:
			fmt.Println(c.out.Text())
		}
	}
	if err = c.cmd.Wait(); err != nil {
		return nil, nil, 0, fmt.Errorf("simulator child: %w", err)
	}
	if len(iters) == 0 || rss == 0 {
		return nil, nil, 0, errors.New("simulator child reported no evaluation")
	}
	return iters, traced, rss, nil
}

// exit tells a child that only reported ready to exit, and reaps it.
func (c *simChildProc) exit() error {
	io.WriteString(c.stdin, "exit\n")
	c.stdin.Close()
	for c.out.Scan() {
	}
	return c.cmd.Wait()
}

// simChild is the simulator process: it sets up (compiles every workload
// of the run at the run's seed), reports ready, and on "go" runs
// evaluations for the measured seconds (at least one), then a traced
// evaluation with layer probes when asked.
func simChild(args []string) {
	fl := flag.NewFlagSet("sim", flag.ExitOnError)
	workload := fl.String("workload", "", "paper-w or manycore")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 20, "measured seconds")
	traced := fl.Int("trace", 0, "1 = add a traced evaluation")
	work := fl.String("work", "", "scratch directory")
	fl.Parse(args)
	runtime.GOMAXPROCS(simWorkers)

	var eval func() iterResult
	var tracedEval func() tracedResult
	switch *workload {
	case "paper-w":
		cfg := paperConfig(*seed)
		for _, name := range npb.Names() {
			core.CompileWorkload(paperWorkload(cfg, name, cfg.Seed), cfg.Options)
		}
		eval = func() iterResult { return evalPaper(cfg) }
		tracedEval = func() tracedResult { return tracePaper(cfg, *work) }
	case "manycore":
		cfg := manycoreConfig(*seed)
		for _, b := range manycoreBenches {
			for _, n := range manycoreCores {
				core.CompileWorkload(scaleWorkload(cfg, b, n), core.Options{Machine: topology.Manycore(n)})
			}
		}
		eval = func() iterResult { return evalManycore(cfg) }
		tracedEval = func() tracedResult { return traceManycore(cfg, *work) }
	default:
		log.Fatalf("sim: unknown workload %q", *workload)
	}
	fmt.Println("ready")
	in := bufio.NewScanner(os.Stdin)
	if !in.Scan() || in.Text() != "go" {
		return
	}
	emit := func(kind string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s %s\n", kind, b)
	}
	start := time.Now()
	budget := time.Duration(*seconds) * time.Second
	var last time.Duration
	for n := 0; ; n++ {
		if n > 0 && (*traced == 1 || time.Since(start)+last > budget+budget/10) {
			break
		}
		t := time.Now()
		emit("iter", eval())
		last = time.Since(t)
	}
	rss, err := peakRSS(os.Getpid())
	if err != nil {
		log.Fatal(err)
	}
	emit("rss", rss)
	if *traced == 1 {
		emit("traced", tracedEval())
	}
}

func paperConfig(seed int64) harness.Config {
	return harness.Config{Class: npb.ClassW, Repetitions: 10, Seed: seed, Parallel: simWorkers}
}

// paperWorkload is kernel name of the paper evaluation at seed, as the
// harness builds it.
func paperWorkload(cfg harness.Config, name string, seed int64) core.Workload {
	b, err := npb.Get(name)
	if err != nil {
		log.Fatal(err)
	}
	return core.FromNPB(b, npb.Params{Class: cfg.Class, Seed: seed})
}

// scaleWorkload is the scale study's workload of bench at n cores, as the
// harness builds it.
func scaleWorkload(cfg harness.ScaleStudyConfig, bench string, n int) core.Workload {
	b, err := npb.Get(bench)
	if err != nil {
		log.Fatal(err)
	}
	return core.FromNPB(b, npb.Params{Threads: n, Class: cfg.Class, Seed: runner.SeedN(cfg.Seed, n, "npb", bench, "scale")})
}

func manycoreConfig(seed int64) harness.ScaleStudyConfig {
	return harness.ScaleStudyConfig{
		Config:  harness.Config{Class: npb.ClassW, Seed: seed, Parallel: simWorkers, Benchmarks: manycoreBenches},
		Cores:   manycoreCores,
		Mappers: manycoreMappers,
	}
}

// paperRun is everything one paper-w evaluation computes.
type paperRun struct {
	patterns []harness.PatternResult
	perf     []harness.PerfResult
	table3   []harness.Table3Row
	hm       []harness.HMOverheadRow
	storage  []harness.StorageRow
}

// evalPaper runs the experiments -exp all -class W evaluation through the
// harness and renders its tables.
func evalPaper(cfg harness.Config) iterResult {
	start, cpu0 := time.Now(), selfCPU()
	var r paperRun
	var err error
	jobs := int64(5 * len(npb.Names()))
	jobs += int64(len(npb.Names()) * cfg.Repetitions)
	res := iterResult{Jobs: jobs}
	fail := func(stage string, err error) iterResult {
		res.Fails = jobs
		res.Problems = append(res.Problems, fmt.Sprintf("%s: %v", stage, err))
		res.Wall, res.CPU = since(start), selfCPU()-cpu0
		return res
	}
	if r.patterns, err = harness.DetectPatterns(cfg); err != nil {
		return fail("patterns", err)
	}
	if r.perf, err = harness.RunPerformance(cfg); err != nil {
		return fail("performance", err)
	}
	if r.table3, err = harness.RunTable3(cfg); err != nil {
		return fail("table3", err)
	}
	if r.hm, err = harness.RunHMOverhead(cfg); err != nil {
		return fail("hm-overhead", err)
	}
	if r.storage, err = harness.RunStorageCost(cfg); err != nil {
		return fail("storage", err)
	}
	var rendered strings.Builder
	rendered.WriteString(harness.Table1(cfg))
	rendered.WriteString(harness.Table2(cfg))
	for _, mech := range []string{"SM", "HM", "oracle"} {
		rendered.WriteString(harness.RenderPatterns(r.patterns, mech))
	}
	for _, m := range []string{"time", "inv", "snoop", "l2miss"} {
		rendered.WriteString(harness.RenderFigure(r.perf, m))
	}
	rendered.WriteString(harness.RenderTable3(r.table3))
	rendered.WriteString(harness.RenderHMOverhead(r.hm))
	rendered.WriteString(harness.RenderStorageCost(r.storage))
	rendered.WriteString(harness.RenderTable4(r.perf))
	rendered.WriteString(harness.RenderTable5(r.perf))
	res.Wall, res.CPU = since(start), selfCPU()-cpu0
	paperQuality(&res, r)
	return res
}

// paperQuality checks a paper-w evaluation's outputs and fills the digest
// and the quality figures.
func paperQuality(res *iterResult, r paperRun) {
	names := npb.Names()
	complete := len(r.patterns) == len(names) && len(r.perf) == len(names) &&
		len(r.table3) == len(names) && len(r.hm) == len(names) && len(r.storage) == len(names)
	if !complete {
		res.Problems = append(res.Problems, "an experiment stage is missing kernels")
		res.Fails++
		return
	}
	h := sha256.New()
	var timeRatios, costRatios []float64
	var errSum float64
	machine := topology.Harpertown()
	for i, name := range names {
		p, pr := r.patterns[i], r.perf[i]
		if p.Name != name || pr.Name != name || r.table3[i].Name != name || r.hm[i].Name != name || r.storage[i].Name != name {
			res.Problems = append(res.Problems, fmt.Sprintf("kernel %d is not %s", i, name))
			res.Fails++
			continue
		}
		res.Kernels++
		for _, d := range []*core.Detection{p.SM, p.HM, p.Oracle} {
			fmt.Fprintf(h, "%s %v\n", d.Mechanism, d.Matrix.Flatten())
			fmt.Fprintf(h, "%d %v\n", d.Result.Cycles, countersOf(d.Result))
		}
		for _, label := range []harness.MappingLabel{harness.OSLabel, harness.SMLabel, harness.HMLabel} {
			s := pr.Stats[label]
			fmt.Fprintf(h, "%s %v %v %v %v %v %v\n", label, s.Time.Mean(), s.Time.StdDev(),
				s.Inv.Mean(), s.Snoop.Mean(), s.L2Miss.Mean(), s.InvPerSec.Mean())
		}
		fmt.Fprintf(h, "%v %v\n", pr.PlacementSM, pr.PlacementHM)
		fmt.Fprintf(h, "%+v %+v %+v\n", r.table3[i], r.hm[i], r.storage[i])

		ratio := pr.Normalized(harness.SMLabel, "time")
		timeRatios = append(timeRatios, ratio)
		if paper, _, _, _, ok := paperdata.NormalizedSM(name); ok {
			errSum += math.Abs(ratio - paper)
		}
		costRatios = append(costRatios, costRatio(p.SM.Matrix, machine, pr.PlacementSM))
	}
	res.Digest = fmt.Sprintf("%x", h.Sum(nil)[:12])
	res.TimeRatio = gmean(timeRatios)
	res.PaperErr = errSum / float64(len(names))
	res.CostRatio = gmean(costRatios)
}

// costRatio is the communication cost of a placement over that of the
// identity placement (1 when nothing communicates).
func costRatio(m *comm.Matrix, machine *topology.Machine, place []int) float64 {
	id := make([]int, len(place))
	for i := range id {
		id[i] = i
	}
	base := mapping.Cost(m, machine, id)
	if base == 0 {
		return 1
	}
	return float64(mapping.Cost(m, machine, place)) / float64(base)
}

func countersOf(r *sim.Result) []uint64 {
	m := r.Counters.Map()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// evalManycore runs the manycore scale study through the harness.
func evalManycore(cfg harness.ScaleStudyConfig) iterResult {
	start, cpu0 := time.Now(), selfCPU()
	rows, failed, err := harness.RunScaleStudy(context.Background(), cfg)
	res := iterResult{Wall: since(start), CPU: selfCPU() - cpu0}
	res.Jobs = int64(len(manycoreBenches) * len(manycoreCores))
	res.Fails = int64(len(failed))
	for _, f := range failed {
		res.Problems = append(res.Problems, f.Error())
	}
	if err != nil {
		res.Fails = res.Jobs
		res.Problems = append(res.Problems, err.Error())
		return res
	}
	scaleQuality(&res, rows)
	return res
}

// scaleQuality digests the deterministic columns of the scale study (its
// wall-clock columns are host timings) and takes the cost-ratio mean.
func scaleQuality(res *iterResult, rows []harness.ScaleRow) {
	h := sha256.New()
	var ratios []float64
	for _, r := range rows {
		fmt.Fprintf(h, "%s %d %d %v %s %v\n", r.Benchmark, r.Cores, r.NNZ, r.Sparse, r.Mapper, r.CostRatio)
		ratios = append(ratios, r.CostRatio)
	}
	res.Kernels = len(rows)
	res.Digest = fmt.Sprintf("%x", h.Sum(nil)[:12])
	res.CostRatio = gmean(ratios)
}

// pipeline is the traced re-run of a workload: the benchmark calls each
// layer's public function itself, inside a span, on the same jobs and
// seeds as the harness, so its simulated statistics must equal the
// untraced run's.
type pipeline struct {
	tr      *tracer
	mu      sync.Mutex
	stages  []stageTimes
	events  uint64 // simulated accesses over all runs
	cycles  uint64 // simulated cycles over all runs
	replays uint64 // accesses of replay runs
}

// stageTimes is one runner stage: its start and its job completions.
type stageTimes struct {
	start time.Time
	done  []time.Time
}

// runStage runs n jobs on the worker pool, recording completions through
// the pool's progress callback (which the pool serializes) and one span
// per job.
func runStage[T any](p *pipeline, n int, fn func(i, parent int) (T, error)) ([]T, error) {
	st := stageTimes{start: time.Now()}
	pool := runner.Pool{Workers: simWorkers, Progress: func(done, total int) {
		st.done = append(st.done, time.Now())
	}}
	out, err := runner.Map(pool, n, func(i int) (T, error) {
		id := p.tr.begin("runner.job", 0)
		defer p.tr.end(id)
		return fn(i, id)
	})
	p.mu.Lock()
	p.stages = append(p.stages, st)
	p.mu.Unlock()
	return out, err
}

// count adds one simulated run's accesses and cycles.
func (p *pipeline) count(accesses, cycles uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events += accesses
	p.cycles += cycles
}

// runnerFigures derives the runner's busy share and tail time from the job
// completions: after each completion, workers beyond the jobs still
// outstanding sit idle until the next one.
func (p *pipeline) runnerFigures() (busyFrac, tailS float64) {
	var idle, wall float64
	for _, st := range p.stages {
		n := len(st.done)
		if n == 0 {
			continue
		}
		end := st.done[n-1].Sub(st.start).Seconds()
		wall += end
		for k := 0; k < n-1; k++ {
			if free := simWorkers - (n - (k + 1)); free > 0 {
				idle += float64(free) * st.done[k+1].Sub(st.done[k]).Seconds()
			}
		}
		if n >= simWorkers {
			tailS += st.done[n-1].Sub(st.done[n-simWorkers]).Seconds()
		}
	}
	if wall == 0 {
		return 1, 0
	}
	return 1 - idle/(simWorkers*wall), tailS
}

// tracePaper re-runs the paper-w evaluation with spans around every call
// into core, trace, sim and mapping, then probes the single layers with
// the first kernel's compiled stream.
func tracePaper(cfg harness.Config, work string) tracedResult {
	p := &pipeline{tr: newTracer()}
	start := time.Now()
	r, err := tracedPaperRun(p, cfg)
	wall := since(start)
	if err != nil {
		log.Fatalf("traced paper-w: %v", err)
	}
	recs, err := countReplays(p, cfg)
	if err != nil {
		log.Fatalf("traced paper-w: %v", err)
	}
	var res iterResult
	paperQuality(&res, r)
	var sims []float64
	var hms []float64
	for _, pat := range r.patterns {
		sims = append(sims, pat.SMSimilarity())
		hms = append(hms, pat.HMSimilarity())
	}
	return finishTraced(p, wall, res.Digest, work, probeInput{
		recs: recs, smSim: mean(sims), hmSim: mean(hms), pipeLoop: true,
	})
}

// countReplays adds the accesses of the traced run's replays, which
// CompiledWorkload.EvaluateMetrics does not report: it compiles every
// replayed job's workload once more, after the timed run, and counts its
// data events (each job replays its trace under three placements). The
// first job's compiled stream becomes the layer probes' records.
func countReplays(p *pipeline, cfg harness.Config) (*records, error) {
	names, reps := npb.Names(), cfg.Repetitions
	var recs *records
	counts, err := runner.Map(runner.Pool{Workers: simWorkers}, len(names)*reps, func(j int) (uint64, error) {
		name, rep := names[j/reps], j%reps
		as := vm.NewAddressSpace()
		programs := paperWorkload(cfg, name, runner.SeedN(cfg.Seed, rep, "npb", name, "workload"))(as)
		c := trace.Compile(trace.NewTeam(programs, 0))
		if j == 0 {
			recs = recordsOf(c, as)
		}
		var n uint64
		for t := 0; t < c.NumThreads(); t++ {
			for _, ev := range c.ThreadEvents(t) {
				if ev.Kind != trace.Compute {
					n++
				}
			}
		}
		return 3 * n, nil
	})
	for _, n := range counts {
		p.replays += n
		p.events += n
	}
	return recs, err
}

func tracedPaperRun(p *pipeline, cfg harness.Config) (paperRun, error) {
	var r paperRun
	names := npb.Names()
	machine := topology.Harpertown()
	opt := cfg.Options
	wl := func(name string, seed int64) core.Workload { return paperWorkload(cfg, name, seed) }
	detectAll := func(name string, parent int) (sm, hm, or *core.Detection, err error) {
		p.tr.do("sim.detect", parent, func() { sm, hm, or, err = core.DetectAll(wl(name, cfg.Seed), opt) })
		if err == nil {
			p.count(sm.Result.Accesses, sm.Result.Cycles)
		}
		return
	}
	var err error
	r.patterns, err = runStage(p, len(names), func(i, parent int) (harness.PatternResult, error) {
		b, _ := npb.Get(names[i])
		sm, hm, or, err := detectAll(names[i], parent)
		return harness.PatternResult{Name: names[i], Expected: b.Expected, SM: sm, HM: hm, Oracle: or}, err
	})
	if err != nil {
		return r, err
	}

	type prep struct {
		sm           *comm.Matrix
		placeSM, plc []int
	}
	preps, err := runStage(p, len(names), func(i, parent int) (prep, error) {
		sm, hm, _, err := detectAll(names[i], parent)
		if err != nil {
			return prep{}, err
		}
		var a, b []int
		var errA, errB error
		p.tr.do("mapping.map", parent, func() {
			a, errA = mapping.NewEdmonds().Map(sm.Matrix, machine)
			b, errB = mapping.NewEdmonds().Map(hm.Matrix, machine)
		})
		return prep{sm: sm.Matrix, placeSM: a, plc: b}, errors.Join(errA, errB)
	})
	if err != nil {
		return r, err
	}

	reps := cfg.Repetitions
	type repRun struct{ os, sm, hm core.RunMetrics }
	runs, err := runStage(p, len(names)*reps, func(j, parent int) (repRun, error) {
		name, rep := names[j/reps], j%reps
		seed := func(kind string) int64 { return runner.SeedN(cfg.Seed, rep, "npb", name, kind) }
		var cw *core.CompiledWorkload
		p.tr.do("trace.compile", parent, func() { cw = core.CompileWorkload(wl(name, seed("workload")), opt) })
		var osPlace []int
		var err error
		p.tr.do("mapping.map", parent, func() {
			osPlace, err = mapping.NewOSScheduler(seed("os")).Map(preps[j/reps].sm, machine)
		})
		if err != nil {
			return repRun{}, err
		}
		runOpt := opt
		runOpt.JitterSeed = seed("jitter")
		var out repRun
		for _, run := range []struct {
			place []int
			dst   *core.RunMetrics
		}{{osPlace, &out.os}, {preps[j/reps].placeSM, &out.sm}, {preps[j/reps].plc, &out.hm}} {
			p.tr.do("sim.replay", parent, func() { *run.dst, err = cw.EvaluateMetrics(run.place, runOpt) })
			if err != nil {
				return repRun{}, err
			}
			p.count(0, run.dst.Cycles)
		}
		return out, nil
	})
	if err != nil {
		return r, err
	}
	for bi, name := range names {
		pr := harness.PerfResult{Name: name, PlacementSM: preps[bi].placeSM, PlacementHM: preps[bi].plc,
			Stats: map[harness.MappingLabel]*harness.MappingStats{harness.OSLabel: {}, harness.SMLabel: {}, harness.HMLabel: {}}}
		for rep := 0; rep < reps; rep++ {
			run := runs[bi*reps+rep]
			recordMetrics(pr.Stats[harness.OSLabel], run.os)
			recordMetrics(pr.Stats[harness.SMLabel], run.sm)
			recordMetrics(pr.Stats[harness.HMLabel], run.hm)
		}
		r.perf = append(r.perf, pr)
	}

	r.table3, err = runStage(p, len(names), func(i, parent int) (harness.Table3Row, error) {
		var det *core.Detection
		var err error
		p.tr.do("sim.detect", parent, func() {
			det, err = core.Detect(wl(names[i], cfg.Seed), core.SM, core.Options{SampleEvery: 100})
		})
		if err != nil {
			return harness.Table3Row{}, err
		}
		p.count(det.Result.Accesses, det.Result.Cycles)
		return harness.Table3Row{Name: names[i], MissRate: det.Result.TLBMissRate, SampledFraction: det.SampledFraction,
			Overhead: det.Result.DetectionOverhead, Searches: det.Result.Counters.Get(metrics.DetectionSearches)}, nil
	})
	if err != nil {
		return r, err
	}
	r.hm, err = runStage(p, len(names), func(i, parent int) (harness.HMOverheadRow, error) {
		var det *core.Detection
		var err error
		o := core.Options{ScanInterval: 1_000_000}
		p.tr.do("sim.detect", parent, func() { det, err = core.Detect(wl(names[i], cfg.Seed), core.HM, o) })
		if err != nil {
			return harness.HMOverheadRow{}, err
		}
		p.count(det.Result.Accesses, det.Result.Cycles)
		return harness.HMOverheadRow{Name: names[i], Interval: o.ScanInterval,
			Scans: det.Result.Counters.Get(metrics.DetectionSearches), Overhead: det.Result.DetectionOverhead,
			PaperIntervalOverhead: float64(comm.HMScanCycles) / 10_000_000}, nil
	})
	if err != nil {
		return r, err
	}
	r.storage, err = runStage(p, len(names), func(i, parent int) (harness.StorageRow, error) {
		var recs, bytes uint64
		var err error
		p.tr.do("sim.detect", parent, func() { recs, bytes, err = core.MeasureTraceSize(wl(names[i], cfg.Seed), opt) })
		n := machine.NumCores()
		return harness.StorageRow{Name: names[i], Accesses: recs, TraceBytes: bytes, MatrixBytes: uint64(n * n * 8)}, err
	})
	return r, err
}

// recordMetrics folds one run into the aggregate exactly as the harness
// does, so the two digests agree.
func recordMetrics(m *harness.MappingStats, res core.RunMetrics) {
	secs := float64(res.Cycles) / harness.ClockHz
	m.Time.Add(secs)
	m.Inv.AddUint(res.Invalidations)
	m.Snoop.AddUint(res.Snoops)
	m.L2Miss.AddUint(res.L2Misses)
	if secs > 0 {
		m.InvPerSec.Add(float64(res.Invalidations) / secs)
		m.SnoopPerSec.Add(float64(res.Snoops) / secs)
		m.L2MissPerSec.Add(float64(res.L2Misses) / secs)
	}
}

// traceManycore re-runs the scale study with spans around detection and
// every mapper, then probes the single layers.
func traceManycore(cfg harness.ScaleStudyConfig, work string) tracedResult {
	p := &pipeline{tr: newTracer()}
	type cell struct {
		bench string
		cores int
	}
	var cells []cell
	for _, b := range manycoreBenches {
		for _, n := range manycoreCores {
			cells = append(cells, cell{b, n})
		}
	}
	type cellOut struct {
		rows []harness.ScaleRow
		m    *comm.Matrix
	}
	start := time.Now()
	outs, err := runStage(p, len(cells), func(i, parent int) (cellOut, error) {
		c := cells[i]
		machine := topology.Manycore(c.cores)
		w := scaleWorkload(cfg, c.bench, c.cores)
		var det *core.Detection
		var err error
		p.tr.do("sim.detect", parent, func() {
			det, err = core.Detect(w, core.SM, core.Options{Machine: machine, SampleEvery: 1})
		})
		if err != nil {
			return cellOut{}, err
		}
		p.count(det.Result.Accesses, det.Result.Cycles)
		out := cellOut{m: det.Matrix}
		for _, name := range manycoreMappers {
			algo := mapping.Algorithm(mapping.NewMultilevel())
			if name == "greedy" {
				algo = mapping.NewGreedyMatch()
			}
			var place []int
			p.tr.do("mapping.map", parent, func() { place, err = algo.Map(det.Matrix, machine) })
			if err != nil {
				return cellOut{}, err
			}
			out.rows = append(out.rows, harness.ScaleRow{Benchmark: c.bench, Cores: c.cores, NNZ: det.Matrix.NNZ(),
				Sparse: det.Matrix.IsSparse(), Mapper: name, CostRatio: costRatio(det.Matrix, machine, place)})
		}
		return out, nil
	})
	wall := since(start)
	if err != nil {
		log.Fatalf("traced manycore: %v", err)
	}
	var rows []harness.ScaleRow
	var big *comm.Matrix
	for _, o := range outs {
		rows = append(rows, o.rows...)
		if big == nil || o.m.NNZ() > big.NNZ() {
			big = o.m
		}
	}
	var res iterResult
	scaleQuality(&res, rows)

	// The scale study compiles nothing: the layer probes replay the
	// smallest CG cell's compiled stream.
	as := vm.NewAddressSpace()
	programs := scaleWorkload(cfg, "CG", manycoreCores[0])(as)
	recs := recordsOf(trace.Compile(trace.NewTeam(programs, 0)), as)
	return finishTraced(p, wall, res.Digest, work, probeInput{
		recs: recs, addMatrix: big, pipeLoop: true,
	})
}

// finishTraced runs the layer probes, merges them with the pipeline's
// spans and builds the ledger of the traced wall time.
func finishTraced(p *pipeline, wall float64, digest, work string, in probeInput) tracedResult {
	self, count := p.tr.totals()
	layer := runProbes(in, p.tr, work)
	sec := func(name string) float64 { return self[name].Seconds() }

	if count["trace.compile"] > 0 {
		layer["trace.compile_s"] = sec("trace.compile")
		layer["trace.compiles"] = float64(count["trace.compile"])
	}
	layer["sim.detect_s"] = sec("sim.detect")
	if p.replays > 0 {
		layer["sim.replay_s"] = sec("sim.replay")
		layer["sim.ns_per_event"] = sec("sim.replay") * 1e9 / float64(p.replays)
		layer["sim.self_ns_per_event"] = layer["sim.ns_per_event"] - layer["tlb.lookup_ns"] - layer["mem.access_ns"]
	}
	simS := sec("sim.detect") + sec("sim.replay")
	layer["sim.events"] = float64(p.events)
	layer["sim.cycles_total"] = float64(p.cycles)
	layer["mapping.map_s"] = sec("mapping.map")
	layer["mapping.map_calls"] = float64(count["mapping.map"])
	busy, tail := p.runnerFigures()
	layer["runner.busy_frac"], layer["runner.tail_s"] = busy, tail
	if err := p.tr.write(filepath.Join(work, "spans.tsv")); err != nil {
		log.Printf("writing spans: %v", err)
	}

	// Worker-seconds: both workers over the traced wall time. Each
	// access pays one TLB lookup and one cache access; the probes give
	// their per-call cost.
	tlbS := float64(p.events) * layer["tlb.lookup_ns"] / 1e9
	memS := float64(p.events) * layer["mem.access_ns"] / 1e9
	idle := (1 - busy) * simWorkers * wall
	l := ledger{Total: simWorkers * wall, TotalName: "traced wall_s x 2 workers", Rows: []ledgerRow{
		{"trace", sec("trace.compile"), "spans at core.CompileWorkload"},
		{"sim", simS - tlbS - memS, "spans at core.DetectAll/Detect and CompiledWorkload.EvaluateMetrics, minus tlb and mem"},
		{"tlb", tlbS, "accesses x tlb.lookup_ns"},
		{"mem", memS, "accesses x mem.access_ns"},
		{"mapping", sec("mapping.map"), "spans at Algorithm.Map"},
		{"runner", sec("runner.job") + idle, "job time outside layer calls plus idle workers"},
	}}
	return tracedResult{Wall: wall, Digest: digest, Layer: layer, Ledger: l}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
