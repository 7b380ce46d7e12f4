// Command perfbench is the repository's benchmark. One invocation runs one
// workload and prints every metric by name and unit, a per-layer ledger
// when traced, and as its last line one JSON result:
//
//	perfbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// perfbench/run.sh builds the binaries and supplies -bin and -work. The
// workloads are
//
//	paper-w       the class-W paper evaluation (experiments -exp all)
//	manycore      the manycore scale study (CG, LU at 256 and 1024 cores)
//	serve-ingest  mapperd's write path; set-up recovers a killed durable state
//	serve-query   mapperd's read path, open loop over a rate ladder
//
// The simulator runs in a child process (perfbench sim ...) so its CPU,
// memory and start-up time are its own; mapperd runs as its own process,
// driven over TCP by the load generator in this process.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement as it appears in the JSON result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics an untraced run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"success_frac", "ratio"},
	{"map_cost_ratio_gmean", "ratio"},
}

// perLayer lists the metrics a traced run reports, with their units.
var perLayer = []struct{ name, unit string }{
	{"runner.busy_frac", "ratio"},
	{"runner.tail_s", "s"},
	{"trace.compile_s", "s"},
	{"trace.compiles", "count"},
	{"trace.overhead_s", "s"},
	{"sim.detect_s", "s"},
	{"sim.replay_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.self_ns_per_event", "ns"},
	{"sim.cycles_total", "cycles"},
	{"tlb.lookup_ns", "ns"},
	{"tlb.lookups", "count"},
	{"tlb.miss_ratio", "ratio"},
	{"mem.access_ns", "ns"},
	{"mem.accesses", "count"},
	{"mem.l2_miss_ratio", "ratio"},
	{"mem.snoops_per_kaccess", "1/k"},
	{"comm.matrix_add_ns", "ns"},
	{"comm.matrix_nnz", "count"},
	{"comm.epoch_us", "us"},
	{"comm.sm_similarity_mean", "ratio"},
	{"comm.hm_similarity_mean", "ratio"},
	{"mapping.map_s", "s"},
	{"mapping.map_calls", "count"},
	{"mapping.observe_us", "us"},
	{"serve.conn_ns_per_event", "ns"},
	{"serve.ingest_ns_per_event", "ns"},
	{"serve.apply_lag_ms", "ms"},
	{"serve.query_us", "us"},
	{"serve.overloads", "count"},
	{"serve.degraded", "count"},
	{"serve.recover_s", "s"},
	{"wal.append_ns", "ns"},
	{"wal.sync_us", "us"},
	{"wal.bytes_per_event", "B"},
	{"loadgen.cpu_s", "s"},
	{"loadgen.late_us_p99", "us"},
	{"ledger.residual_frac", "ratio"},
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int64
	problems          []string // failed output checks: the run is not correct
	failures          []string // failed operations, counted in failed
	e2e               map[string]float64
	layer             map[string]float64
	report            []string // extra named metrics, printed, not gated
	ledger            *ledger
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records one output check; a failed check counts as one failed
// operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// notePct adds a latency percentile to the printed report, with its
// sample count; without ten samples beyond it there is no value.
func (o *outcome) notePct(name string, p pct, where string) {
	if !p.OK() {
		o.report = append(o.report, fmt.Sprintf("%-24s %14s %-6s  %v%s", name, "n/a", "us", p, where))
		return
	}
	o.note(name, p.Value, "us", p.String()+where)
}

// note adds a named, unit-stamped figure to the printed report.
func (o *outcome) note(name string, value float64, unit, detail string) {
	line := fmt.Sprintf("%-24s %14.6g %-6s", name, value, unit)
	if detail != "" {
		line += "  " + detail
	}
	o.report = append(o.report, line)
}

// env is what every workload runner gets.
type env struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	bin      string // directory with the perfbench and mapperd binaries
	work     string // scratch directory inside the checkout
}

var workloads = map[string]func(e env) (*outcome, error){
	"paper-w":      runSimWorkload,
	"manycore":     runSimWorkload,
	"serve-ingest": runServeWorkload,
	"serve-query":  runServeWorkload,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	if len(os.Args) > 1 && os.Args[1] == "sim" {
		simChild(os.Args[2:])
		return
	}
	var e env
	var traceFlag int
	flag.StringVar(&e.workload, "workload", "", "workload: paper-w, manycore, serve-ingest or serve-query")
	flag.Int64Var(&e.seed, "seed", 1, "workload seed")
	flag.IntVar(&e.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics and ledger")
	flag.StringVar(&e.bin, "bin", "", "directory holding the built perfbench and mapperd binaries")
	flag.StringVar(&e.work, "work", "", "scratch directory for state and spans")
	flag.Parse()
	e.traced = traceFlag == 1
	run, ok := workloads[e.workload]
	switch {
	case !ok:
		log.Fatalf("unknown workload %q", e.workload)
	case e.bin == "" || e.work == "":
		log.Fatal("-bin and -work are required (use perfbench/run.sh)")
	case e.seconds < 1 || e.seed == 0:
		log.Fatal("--seconds must be at least 1 and --seed non-zero")
	}
	// The generator side shares the host's two cores with the system under
	// test; it never needs more than two threads.
	runtime.GOMAXPROCS(2)

	stamp := hostStamp()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", e.workload, e.seed, e.seconds, traceFlag)
	fmt.Printf("host: cpu=%q nproc=%d go=%s commit=%s\n", stamp.cpu, stamp.nproc, stamp.goVersion, stamp.commit)

	out, err := run(e)
	if err != nil {
		log.Fatalf("%s: %v", e.workload, err)
	}
	if out.attempted < 1 {
		log.Fatalf("%s: nothing attempted", e.workload)
	}
	out.e2e["success_frac"] = 1 - float64(out.failed)/float64(out.attempted)

	fmt.Printf("operations: attempted=%d failed=%d error_frac=%.6g\n",
		out.attempted, out.failed, float64(out.failed)/float64(out.attempted))
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	for _, f := range out.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	for _, line := range out.report {
		fmt.Println(line)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	emit := func(name, unit string, from map[string]float64) {
		v, ok := from[name]
		if !ok {
			log.Fatalf("%s: metric %s was not measured", e.workload, name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Printf("%-24s %14.6g %s\n", name, v, unit)
	}
	if e.traced {
		if out.ledger != nil {
			out.ledger.print(os.Stdout)
			if out.ledger.Total > 0 {
				out.layer["ledger.residual_frac"] = out.ledger.Residual() / out.ledger.Total
			}
		}
		for _, m := range perLayer {
			emit(m.name, m.unit, out.layer)
		}
	} else {
		for _, m := range endToEnd {
			emit(m.name, m.unit, out.e2e)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(b))
}

// stamp identifies the host and the code a result was measured on.
type stamp struct {
	cpu, goVersion, commit string
	nproc                  int
}

func hostStamp() stamp {
	s := stamp{cpu: "unknown", nproc: runtime.NumCPU(), goVersion: runtime.Version(), commit: treeHash()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				s.cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			s.commit = strings.TrimSpace(string(out)) + " " + s.commit
		}
	}
	return s
}

// treeHash identifies the checkout's source: a SHA-256 over the path and
// contents of every Go source and module file, outside the build
// directory. A checkout without git history is still stamped exactly.
func treeHash() string {
	var paths []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (path == ".bench_build" || path == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		io.Copy(h, f)
		f.Close()
	}
	return fmt.Sprintf("tree:%x", h.Sum(nil)[:8])
}

// rusage returns the user+system CPU seconds of an exited child process.
func rusage(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSS returns a live process's peak resident set in MiB. It reads
// VmHWM rather than the rusage maximum, which on Linux also counts the
// parent's memory at the moment of the exec.
func peakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns this process's user+system CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// child builds the command of a child process that is killed when this
// process dies, so no child outlives an interrupted run.
func child(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
