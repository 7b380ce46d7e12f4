package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	randv2 "math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tlbmap/internal/comm"
	"tlbmap/internal/mem"
	"tlbmap/internal/runner"
	"tlbmap/internal/topology"
	"tlbmap/internal/vm"
)

// serveSpec is one serve workload. Rates count request lines (E and Q)
// per second over both connections; phase sizes are for a 15-second run
// and scale with --seconds.
type serveSpec struct {
	durable    bool
	tenants    int // one connection per tenant
	threads    int
	batch      int // events per E line
	queryEvery int // a Q after every that many batches
	// preload is the per-connection batch count of the untimed run whose
	// SIGKILLed state directory every set-up recovers (durable only).
	preload int
	// closed is the per-connection batch count of the closed-loop phase.
	closed int
	// rates is the open-loop ladder; each rung runs for rung seconds.
	rates []float64
	rung  float64
}

const (
	// window is how many requests a closed-loop connection keeps in
	// flight.
	window = 8
	// sloUs is the latency limit on a rung's query p99.
	sloUs = 1000.0
)

var serveSpecs = map[string]serveSpec{
	"serve-ingest": {
		durable: true, tenants: 2, threads: 8, batch: 50, queryEvery: 16,
		preload: 1000, closed: 170000,
		rates: []float64{40000}, rung: 5,
	},
	"serve-query": {
		tenants: 2, threads: 64, batch: 10, queryEvery: 1,
		closed: 20000,
		rates:  []float64{2000, 10000, 20000, 40000, 60000}, rung: 1,
	},
}

// recoverFlags start the set-up daemons of a durable workload on a copy of
// the killed run's state directory. The measured daemon runs in memory:
// the only writable directory is the checkout, on a disk whose fsync
// stalls for up to seconds, which would make the disk, not mapperd, set
// every number. The WAL is timed by the wal.* probes and by recovery.
var recoverFlags = []string{"-sync", "never"}

// request is one prepared request line.
type request struct {
	line   []byte
	events int // 0 for a query
	query  bool
}

// conversation is one connection's prepared requests.
type conversation struct {
	tenant  string
	threads int
	lines   []request
	// distinct is how many leading lines are distinct; later ones repeat
	// them.
	distinct int
}

// maxDistinct caps the distinct batches of one conversation.
const maxDistinct = 20000

// chainSeed orders each connection's chain of threads. It is not the
// run's seed: the identity placement's cost, the denominator of the
// placement-quality ratio, is then the same on every seed.
const chainSeed = 1

// genConversation builds connection c's requests for one phase: batches
// of neighbour-pattern samples with a query after every queryEvery
// batches. The k-th thread of the chain touches pages k*64 .. k*64+95, so
// it shares 32 pages with the (k+1)-th; the chain runs through the thread
// IDs in a fixed pseudo-random order per connection, so the identity
// placement is far from the best one. The samples are a function of
// (seed, phase, c).
func genConversation(sp serveSpec, seed int64, phase string, c, nbatches int) *conversation {
	s := uint64(runner.SeedN(seed, c, "perfbench", phase))
	rng := randv2.New(randv2.NewPCG(s, s^0x9e3779b97f4a7c15))
	cs := uint64(runner.SeedN(chainSeed, c, "perfbench", "chain"))
	chain := randv2.New(randv2.NewPCG(cs, cs^0x9e3779b97f4a7c15)).Perm(sp.threads)
	conv := &conversation{tenant: fmt.Sprintf("tenant-%d", c), threads: sp.threads}
	query := request{line: []byte("Q\n"), query: true}
	for b := 0; b < nbatches; b++ {
		if b >= maxDistinct {
			// Long phases cycle through the distinct batches.
			conv.lines = append(conv.lines, conv.lines[len(conv.lines)-conv.distinct])
			continue
		}
		line := []byte{'E'}
		for k := 0; k < sp.batch; k++ {
			pos := rng.IntN(sp.threads)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(chain[pos]), 10)
			line = append(line, ':')
			line = strconv.AppendUint(line, uint64(pos*64+rng.IntN(96)), 10)
		}
		conv.lines = append(conv.lines, request{line: append(line, '\n'), events: sp.batch})
		if (b+1)%sp.queryEvery == 0 {
			conv.lines = append(conv.lines, query)
		}
		conv.distinct = len(conv.lines)
	}
	return conv
}

// phase is what one load phase measured.
type phase struct {
	mu                       sync.Mutex
	ackUs, queryUs, lateUs   []float64
	requests, failed, events int64
	unanswered               int64 // requests lost to a hang-up
	placements               map[string][]int
	// failures describes failed requests (ERR, degraded, hang-up); wrong
	// describes OK answers whose content is wrong, an output-check failure.
	failures, wrong   []string
	lastDue, lastDone time.Duration
	wall              time.Duration
}

// maxNotes bounds the failure descriptions a phase keeps.
const maxNotes = 10

func note(list *[]string, format string, args ...any) {
	if len(*list) < maxNotes {
		*list = append(*list, fmt.Sprintf(format, args...))
	}
}

// fail records one failed request.
func (p *phase) fail(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	note(&p.failures, format, args...)
}

// reject records one answer with wrong content.
func (p *phase) reject(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	note(&p.wrong, format, args...)
}

// lose records n requests that got no answer.
func (p *phase) lose(n int, format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed += int64(n)
	p.unanswered += int64(n)
	note(&p.failures, format, args...)
}

// answer validates one response and records it. due is when the request
// was scheduled (or sent, in a closed loop) and done when its response
// arrived.
func (p *phase) answer(conv *conversation, req request, resp []byte, due, done time.Duration) {
	p.mu.Lock()
	p.requests++
	if done > p.lastDone {
		p.lastDone = done
	}
	p.mu.Unlock()
	lat := float64((done - due).Microseconds())
	if !bytes.HasPrefix(resp, []byte("OK ")) {
		p.fail("%s: %s answered %q", conv.tenant, bytes.TrimSpace(req.line[:min(len(req.line), 8)]), resp)
		return
	}
	if !req.query {
		if n, err := strconv.Atoi(string(resp[3:])); err != nil || n != req.events {
			p.reject("%s: E of %d events answered %q", conv.tenant, req.events, resp)
			return
		}
		p.mu.Lock()
		p.events += int64(req.events)
		p.ackUs = append(p.ackUs, lat)
		p.mu.Unlock()
		return
	}
	fields := strings.Fields(string(resp[3:]))
	place, err := parsePlacement(fields[0], conv.threads)
	if err != nil {
		p.reject("%s: query answered %q: %v", conv.tenant, resp, err)
		return
	}
	if !strings.Contains(string(resp), " degraded=false") {
		p.fail("%s: degraded query %q", conv.tenant, resp)
		return
	}
	p.mu.Lock()
	p.queryUs = append(p.queryUs, lat)
	if p.placements == nil {
		p.placements = map[string][]int{}
	}
	p.placements[conv.tenant] = place
	p.mu.Unlock()
}

// parsePlacement parses "c0,c1,..." and checks it is a permutation.
func parsePlacement(s string, threads int) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != threads {
		return nil, fmt.Errorf("%d cores for %d threads", len(parts), threads)
	}
	seen := make([]bool, threads)
	out := make([]int, threads)
	for i, f := range parts {
		c, err := strconv.Atoi(f)
		if err != nil || c < 0 || c >= threads || seen[c] {
			return nil, fmt.Errorf("not a permutation at %d", i)
		}
		seen[c], out[i] = true, c
	}
	return out, nil
}

// session is one open connection bound to its tenant.
type session struct {
	conn net.Conn
	rd   *bufio.Reader
	w    *bufio.Writer
}

func hello(dial func() (net.Conn, error), conv *conversation) (*session, error) {
	c, err := dial()
	if err != nil {
		return nil, err
	}
	s := &session{conn: c, rd: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriterSize(c, 64<<10)}
	fmt.Fprintf(s.w, "HELLO %s %d\n", conv.tenant, conv.threads)
	if err := s.w.Flush(); err != nil {
		c.Close()
		return nil, err
	}
	resp, err := s.rd.ReadString('\n')
	if err != nil || !strings.HasPrefix(resp, "OK") {
		c.Close()
		return nil, fmt.Errorf("HELLO %s: %q %v", conv.tenant, resp, err)
	}
	return s, nil
}

// bye ends the session cleanly.
func (s *session) bye() error {
	defer s.conn.Close()
	if _, err := s.w.WriteString("BYE\n"); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	resp, err := s.rd.ReadString('\n')
	if err != nil || !strings.HasPrefix(resp, "OK bye") {
		return fmt.Errorf("BYE answered %q: %v", resp, err)
	}
	return nil
}

// runSessions runs one function per conversation on its own connection
// and waits for all of them.
func runSessions(dial func() (net.Conn, error), convs []*conversation, ph *phase,
	fn func(c int, s *session, conv *conversation)) error {
	sessions := make([]*session, len(convs))
	for c, conv := range convs {
		s, err := hello(dial, conv)
		if err != nil {
			for _, open := range sessions[:c] {
				open.conn.Close()
			}
			return err
		}
		sessions[c] = s
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := range convs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, sessions[c], convs[c])
			if err := sessions[c].bye(); err != nil {
				ph.fail("%s: %v", convs[c].tenant, err)
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return nil
}

// closedLoop sends every conversation with window requests in flight per
// connection: write a window, flush, read its responses. A traced loop
// records one span per window.
func closedLoop(dial func() (net.Conn, error), convs []*conversation, tr *tracer) (*phase, error) {
	ph := &phase{}
	t0 := time.Now()
	err := runSessions(dial, convs, ph, func(c int, s *session, conv *conversation) {
		for i := 0; i < len(conv.lines); i += window {
			end := min(i+window, len(conv.lines))
			id := tr.begin("loadgen.window", 0)
			for _, req := range conv.lines[i:end] {
				s.w.Write(req.line)
			}
			sent := time.Since(t0)
			if err := s.w.Flush(); err != nil {
				ph.lose(len(conv.lines)-i, "%s: hang-up: %v", conv.tenant, err)
				return
			}
			for j, req := range conv.lines[i:end] {
				resp, err := s.rd.ReadSlice('\n')
				if err != nil {
					ph.lose(len(conv.lines)-i-j, "%s: hang-up: %v", conv.tenant, err)
					return
				}
				ph.answer(conv, req, bytes.TrimSuffix(resp, []byte("\n")), sent, time.Since(t0))
			}
			tr.end(id)
		}
	})
	return ph, err
}

// openLoop sends every conversation on a fixed schedule at rate request
// lines per second over all connections, whatever the responses do. Each
// latency runs from the request's due time, so a stall in the server or
// the generator is charged to every request it delays; the generator's
// own lateness is recorded separately.
func openLoop(dial func() (net.Conn, error), convs []*conversation, rate float64, tr *tracer) (*phase, error) {
	ph := &phase{}
	// The schedule starts once every connection has said HELLO.
	t0 := time.Now().Add(20 * time.Millisecond)
	err := runSessions(dial, convs, ph, func(c int, s *session, conv *conversation) {
		n := len(conv.lines)
		due := func(k int) time.Duration { return sendOffset(k, c, len(convs), rate) }
		sent := make(chan int, n) // one entry per request: the writer never blocks on the reader
		spans := make([]int, n)
		go func() {
			defer close(sent)
			for k := 0; k < n; {
				pause(time.Until(t0.Add(due(k))))
				first := k
				for now := time.Since(t0); k < n && due(k) <= now; k++ {
					s.w.Write(conv.lines[k].line)
					spans[k] = tr.begin("loadgen.request", 0)
				}
				if err := s.w.Flush(); err != nil {
					ph.lose(n-first, "%s: hang-up: %v", conv.tenant, err)
					return
				}
				flushed := time.Since(t0)
				ph.mu.Lock()
				for i := first; i < k; i++ {
					ph.lateUs = append(ph.lateUs, float64((flushed - due(i)).Microseconds()))
				}
				ph.mu.Unlock()
				for i := first; i < k; i++ {
					sent <- i
				}
			}
		}()
		for k := range sent {
			resp, err := s.rd.ReadSlice('\n')
			if err != nil {
				lost := 1
				for range sent {
					lost++
				}
				ph.lose(lost, "%s: hang-up: %v", conv.tenant, err)
				return
			}
			tr.end(spans[k])
			ph.answer(conv, conv.lines[k], bytes.TrimSuffix(resp, []byte("\n")), due(k), time.Since(t0))
		}
		ph.mu.Lock()
		if d := due(n - 1); d > ph.lastDue {
			ph.lastDue = d
		}
		ph.mu.Unlock()
	})
	return ph, err
}

// pause sleeps for d. Short pauses use nanosleep directly: the Go
// runtime's timers wake a millisecond late on this path, which would make
// the generator, not the server, set every sub-millisecond latency.
func pause(d time.Duration) {
	if d <= 0 {
		return
	}
	if d > 5*time.Millisecond {
		time.Sleep(d)
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	syscall.Nanosleep(&ts, nil)
}

// daemon is one mapperd process.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	log   *logLines
	ready float64 // seconds from exec until it answered a connection
}

// logLines collects the daemon's standard error and reports its listen
// address.
type logLines struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	lines []string
	addr  chan string
}

func (l *logLines) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	for {
		i := bytes.IndexByte(l.buf.Bytes(), '\n')
		if i < 0 {
			break
		}
		line := string(l.buf.Next(i + 1))
		l.lines = append(l.lines, strings.TrimSpace(line))
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			select {
			case l.addr <- strings.Fields(rest)[0]:
			default:
			}
		}
	}
	return len(p), nil
}

func (l *logLines) find(prefix string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if i := strings.Index(line, prefix); i >= 0 {
			return line[i:]
		}
	}
	return ""
}

// startDaemon execs mapperd and waits until it serves a connection.
func startDaemon(e env, args ...string) (*daemon, error) {
	d := &daemon{log: &logLines{addr: make(chan string, 1)}}
	d.cmd = child(filepath.Join(e.bin, "mapperd"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stderr = d.log
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	select {
	case d.addr = <-d.log.addr:
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("mapperd did not start listening")
	}
	for {
		if c, err := net.Dial("tcp", d.addr); err == nil {
			c.Write([]byte("BYE\n"))
			resp, err := bufio.NewReader(c).ReadString('\n')
			c.Close()
			if err == nil && strings.HasPrefix(resp, "OK bye") {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			d.kill()
			return nil, errors.New("mapperd did not answer a connection")
		}
		time.Sleep(100 * time.Microsecond)
	}
	d.ready = since(start)
	return d, nil
}

func (d *daemon) dial() (net.Conn, error) { return net.Dial("tcp", d.addr) }

// kill SIGKILLs the daemon and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	d.cmd.Wait()
}

// stop sends SIGTERM, waits for the drain, and returns the drain summary
// line and the daemon's CPU seconds and peak RSS.
func (d *daemon) stop() (summary string, cpuS, rssMiB float64, err error) {
	if rssMiB, err = peakRSS(d.cmd.Process.Pid); err != nil {
		d.kill()
		return "", 0, 0, err
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		d.kill()
		return "", 0, 0, errors.New("mapperd did not drain within 60s")
	}
	if err != nil {
		return "", 0, 0, fmt.Errorf("mapperd exited: %v: %s", err, d.log.find("mapperd:"))
	}
	cpuS = rusage(d.cmd.ProcessState)
	return d.log.find("drained cleanly:"), cpuS, rssMiB, nil
}

// snap asks the daemon for one tenant's counters.
func snap(d *daemon, conv *conversation) (events, applied, dropped uint64, err error) {
	s, err := hello(d.dial, conv)
	if err != nil {
		return 0, 0, 0, err
	}
	defer s.bye()
	s.w.WriteString("SNAP\n")
	s.w.Flush()
	resp, err := s.rd.ReadString('\n')
	if err != nil {
		return 0, 0, 0, err
	}
	_, err = fmt.Sscanf(resp, "OK events=%d applied=%d dropped=%d", &events, &applied, &dropped)
	return events, applied, dropped, err
}

// drainField reads one count from mapperd's drain summary.
func drainField(summary, key string) (uint64, bool) {
	for _, f := range strings.Fields(summary) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// serveSetupReps daemon starts time a serve run's set-up; it reports their
// median. serveWarmStarts untimed starts precede them: starts right after
// the build or the preload run slower.
const (
	serveSetupReps  = 21
	serveWarmStarts = 3
)

// The quality phase: qualityEpochs query epochs of qualityEpochEvents
// events per tenant.
const (
	qualityEpochs      = 4
	qualityEpochEvents = 40000
)

// closedReps is how many fresh daemons each take the closed-loop input;
// the run reports the median of their wall time, CPU and peak RSS.
const closedReps = 9

// runServeWorkload runs mapperd as its own process and drives it from
// this process over two connections.
func runServeWorkload(e env) (*outcome, error) {
	sp := serveSpecs[e.workload]
	scale := float64(e.seconds) / 15
	out := newOutcome()
	root := filepath.Join(e.work, e.workload)
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	convs := func(phase string, nbatches int) []*conversation {
		cs := make([]*conversation, sp.tenants)
		for c := range cs {
			cs[c] = genConversation(sp, e.seed, phase, c, nbatches)
		}
		return cs
	}

	// Durable: an untimed run of the same fleet, SIGKILLed after its last
	// ack, leaves the state directory every set-up recovers.
	pristine := filepath.Join(root, "pristine")
	preAcked := map[string]int64{}
	if sp.durable {
		d, err := startDaemon(e, "-dir", pristine, "-sync", "always")
		if err != nil {
			return nil, err
		}
		pre := convs("preload", sp.preload)
		ph, err := closedLoop(d.dial, pre, nil)
		d.kill()
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		if ph.failed > 0 {
			return nil, fmt.Errorf("preload failed: %v %v", ph.failures, ph.wrong)
		}
		for _, c := range pre {
			for _, r := range c.lines {
				preAcked[c.tenant] += int64(r.events)
			}
		}
	}

	// Set-up: a fresh daemon until it answers a connection; on a durable
	// workload, recovering a copy of the killed run's state directory,
	// checked to hold every event the killed run acknowledged. Timed
	// before the load phases and after a few untimed starts, like the
	// simulator workloads' set-up.
	for i := 0; i < serveWarmStarts; i++ {
		d, err := startDaemon(e)
		if err != nil {
			return nil, err
		}
		d.kill()
	}
	var setups []float64
	for rep := 0; rep < serveSetupReps; rep++ {
		var args []string
		if sp.durable {
			dir := filepath.Join(root, fmt.Sprintf("state-%d", rep))
			if err := copyDir(pristine, dir); err != nil {
				return nil, err
			}
			args = append([]string{"-dir", dir}, recoverFlags...)
		}
		d, err := startDaemon(e, args...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.ready)
		for _, c := range convs("recovered", 0) {
			if !sp.durable {
				break
			}
			ev, applied, dropped, err := snap(d, c)
			if err != nil {
				d.kill()
				return nil, fmt.Errorf("SNAP after recovery: %w", err)
			}
			out.check(int64(ev) == preAcked[c.tenant] && int64(applied) == preAcked[c.tenant] && dropped == 0,
				"%s recovered events=%d applied=%d dropped=%d, the killed run acked %d",
				c.tenant, ev, applied, dropped, preAcked[c.tenant])
		}
		d.kill()
	}
	out.e2e["setup_s"] = median(setups)
	out.note("setup_starts", float64(len(setups)), "count", fmt.Sprintf("set-up times %.3v s; median reported", setups))

	// Closed loop: the same fixed input into several fresh daemons.
	closed := convs("closed", int(float64(sp.closed)*scale))
	cpu0 := selfCPU()
	var walls, cpus, rsses, rates []float64
	for rep := 0; rep < closedReps; rep++ {
		dr, err := driveDaemon(e, sp, out, func(d *daemon) ([]*phase, error) {
			ph, err := closedLoop(d.dial, closed, nil)
			return []*phase{ph}, err
		})
		if err != nil {
			return nil, err
		}
		ph := dr.phases[0]
		walls = append(walls, ph.wall.Seconds())
		rates = append(rates, float64(ph.events)/ph.wall.Seconds())
		cpus, rsses = append(cpus, dr.cpu), append(rsses, dr.rss)
	}
	out.e2e["wall_s"] = median(walls)
	out.e2e["cpu_s"] = median(cpus)
	out.e2e["peak_rss_mb"] = median(rsses)
	out.note("closed_daemons", closedReps, "count", fmt.Sprintf("walls %.3v s, cpus %.3v s; medians reported", walls, cpus))
	out.note("events_per_s", median(rates), "ev/s", fmt.Sprintf("acked events per second, closed loop, median of %d daemons", closedReps))
	out.note("server_cpu_s", median(cpus), "s", "mapperd user+sys CPU for the closed-loop input (= cpu_s)")

	// Open loop over the rate ladder on one more daemon, then the
	// untimed quality phase on the same tenants: qualityEpochs epochs of
	// qualityEpochEvents events, a query closing each. The workload's own
	// epochs are too short for the online mapper's confidence gate (on
	// serve-query it holds on some seeds and remaps on others); epochs this
	// long let every seed converge.
	qs := sp
	qs.queryEvery = qualityEpochEvents / sp.batch
	quality := make([]*conversation, sp.tenants)
	for c := range quality {
		quality[c] = genConversation(qs, e.seed, "quality", c, qualityEpochs*qs.queryEvery)
	}
	var ladder []*phase
	var qph *phase
	dr, err := driveDaemon(e, sp, out, func(d *daemon) ([]*phase, error) {
		for i, rate := range sp.rates {
			perConn := requestsIn(time.Duration(sp.rung*scale*float64(time.Second)), sp.tenants, rate)
			nb := perConn * sp.queryEvery / (sp.queryEvery + 1)
			ph, err := openLoop(d.dial, convs(fmt.Sprintf("open-%d", i), nb), rate, nil)
			if err != nil {
				return nil, err
			}
			ladder = append(ladder, ph)
		}
		var err error
		qph, err = closedLoop(d.dial, quality, nil)
		return append(ladder[:len(ladder):len(ladder)], qph), err
	})
	if err != nil {
		return nil, err
	}
	loadCPU := selfCPU() - cpu0
	reportLadder(out, sp, ladder)
	out.report = append(out.report, "mapperd: "+dr.summary)

	// Placement quality: each tenant's last answered placement, on the
	// page-sharing matrix of the samples it was sent.
	machine := tenantMachine(sp.threads)
	var ratios []float64
	for _, c := range quality {
		place := qph.placements[c.tenant]
		out.check(place != nil, "%s: no placement answered", c.tenant)
		if place != nil {
			ratios = append(ratios, costRatio(truthMatrix(sp, []*conversation{c}), machine, place))
		}
	}
	out.e2e["map_cost_ratio_gmean"] = gmean(ratios)
	out.note("map_cost_ratios", float64(len(ratios)), "count", fmt.Sprintf("per tenant %.4v; gmean reported", ratios))

	if !e.traced {
		return out, nil
	}
	// Traced: the closed loop once more with a span per window of
	// requests, then the layer probes on the closed-loop samples.
	tr := newTracer()
	tdr, err := driveDaemon(e, sp, out, func(d *daemon) ([]*phase, error) {
		ph, err := closedLoop(d.dial, closed, tr)
		return []*phase{ph}, err
	})
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(e.work, "spans.tsv")); err != nil {
		return nil, err
	}
	recs := samplesOf(sp, closed)
	layer := runProbes(probeInput{recs: recs, batch: sp.batch, queryEvery: sp.queryEvery}, newTracer(), e.work)
	for k, v := range layer {
		out.layer[k] = v
	}
	out.layer["trace.overhead_s"] = tdr.phases[0].wall.Seconds() - median(walls)
	out.layer["loadgen.cpu_s"] = loadCPU
	var late []float64
	for _, ph := range ladder {
		late = append(late, ph.lateUs...)
	}
	out.layer["loadgen.late_us_p99"] = percentile(late, 0.99).Value
	out.ledger = serveLedger(tdr, out.layer)
	return out, nil
}

// daemonRun is one measured daemon's life: its phases, drain summary,
// CPU and peak RSS.
type daemonRun struct {
	phases          []*phase
	summary         string
	cpu, rss        float64
	events, queries int64
}

// driveDaemon starts an in-memory daemon, runs the phases, checks that
// every acked event was ingested and applied and nothing was dropped,
// quarantined or degraded, and stops it.
func driveDaemon(e env, sp serveSpec, out *outcome, body func(d *daemon) ([]*phase, error)) (*daemonRun, error) {
	d, err := startDaemon(e)
	if err != nil {
		return nil, err
	}
	phases, err := body(d)
	if err != nil {
		d.kill()
		return nil, err
	}
	r := &daemonRun{phases: phases}
	for _, ph := range phases {
		out.attempted += ph.requests + ph.unanswered
		out.failed += ph.failed
		out.failures = append(out.failures, ph.failures...)
		out.problems = append(out.problems, ph.wrong...)
		// A healthy daemon answers every request: any ERR, refusal,
		// degraded query or hang-up fails the run's output check.
		if ph.failed > 0 {
			out.problems = append(out.problems, fmt.Sprintf("%d requests failed", ph.failed))
		}
		r.events += ph.events
		r.queries += int64(len(ph.queryUs))
	}
	var ingested, applied int64
	for c := 0; c < sp.tenants; c++ {
		conv := &conversation{tenant: fmt.Sprintf("tenant-%d", c), threads: sp.threads}
		var ev, ap, dr uint64
		for deadline := time.Now().Add(10 * time.Second); ; pause(time.Millisecond) {
			if ev, ap, dr, err = snap(d, conv); err != nil {
				d.kill()
				return nil, fmt.Errorf("SNAP: %w", err)
			}
			if ap+dr == ev || time.Now().After(deadline) {
				break
			}
		}
		out.check(ap+dr == ev, "%s: applied %d + dropped %d != ingested %d", conv.tenant, ap, dr, ev)
		out.check(dr == 0, "%s: %d acked events dropped", conv.tenant, dr)
		ingested += int64(ev)
		applied += int64(ap)
	}
	out.check(ingested == r.events, "server ingested %d events, the generator saw %d acked", ingested, r.events)

	if r.summary, r.cpu, r.rss, err = d.stop(); err != nil {
		return nil, err
	}
	drained, ok1 := drainField(r.summary, "applied")
	quarantined, ok2 := drainField(r.summary, "quarantined")
	degraded, ok3 := drainField(r.summary, "degraded")
	out.check(ok1 && ok2 && ok3, "mapperd drain summary unreadable: %q", r.summary)
	out.check(int64(drained) == applied, "drain applied %d, tenants reported %d", drained, applied)
	out.check(quarantined == 0, "%d tenants quarantined", quarantined)
	out.check(degraded == 0, "%d degraded queries", degraded)
	return r, nil
}

// reportLadder prints the open-loop figures: acknowledgement and query
// latency at the middle rung, the highest rung meeting the latency limit,
// and one line per rung.
func reportLadder(out *outcome, sp serveSpec, ladder []*phase) {
	maxQPS := 0.0
	for i, ph := range ladder {
		rate := sp.rates[i]
		q50, q99 := percentile(ph.queryUs, 0.5), percentile(ph.queryUs, 0.99)
		late := percentile(ph.lateUs, 0.99)
		grew := backlogGrew(ph.lastDue, ph.lastDone, time.Duration(sloUs)*time.Microsecond)
		pass := q99.OK() && q99.Value <= sloUs && !grew && ph.failed == 0
		if pass {
			maxQPS = rate / float64(sp.queryEvery+1)
		}
		out.report = append(out.report, fmt.Sprintf("rung %.0f lines/s (%.0f q/s): query %v %v, late %v, backlog grew=%v, failed=%d, meets %gus=%v",
			rate, rate/float64(sp.queryEvery+1), q50, q99, late, grew, ph.failed, sloUs, pass))
	}
	mid := ladder[len(ladder)/2]
	a50, a99 := percentile(mid.ackUs, 0.5), percentile(mid.ackUs, 0.99)
	q50, q99 := percentile(mid.queryUs, 0.5), percentile(mid.queryUs, 0.99)
	rung := fmt.Sprintf(" at %.0f lines/s", sp.rates[len(ladder)/2])
	out.notePct("ack_p50_us", a50, rung)
	out.notePct("ack_p99_us", a99, rung)
	out.notePct("query_p50_us", q50, rung)
	out.notePct("query_p99_us", q99, rung)
	out.note("max_qps_at_slo", maxQPS, "q/s", fmt.Sprintf("highest rung with query p99 <= %gus and no growing backlog (0 = none)", sloUs))
}

// samplesOf turns the distinct E batches of the conversations into
// records for the layer probes; a sample's page is its frame, as in
// mapperd.
func samplesOf(sp serveSpec, convs []*conversation) *records {
	r := &records{threads: sp.threads}
	for c, conv := range convs {
		for _, req := range conv.lines[:conv.distinct] {
			if req.query {
				continue
			}
			for _, tok := range strings.Fields(string(req.line[1:])) {
				ts, ps, _ := strings.Cut(tok, ":")
				t, _ := strconv.Atoi(ts)
				p, _ := strconv.ParseUint(ps, 10, 64)
				if r.len() < maxRecords {
					r.add(int32(t), vm.Page(p), mem.Line(p<<(vm.PageShift-mem.LineShift)), c%2 == 1)
				}
			}
		}
	}
	return r
}

// tenantMachine is the topology mapperd gives a tenant of n threads (n a
// power of two): one socket of 4-core L2 domains below 32 threads, the
// canonical manycore machine from 32.
func tenantMachine(n int) *topology.Machine {
	if n >= 32 {
		return topology.Manycore(n)
	}
	per := min(n, 4)
	return topology.MultiSocket(1, n/per, per)
}

// truthMatrix counts, for every pair of threads, the pages both sampled.
func truthMatrix(sp serveSpec, convs []*conversation) *comm.Matrix {
	m := comm.NewMatrix(sp.threads)
	touched := map[uint64]map[int]bool{}
	for _, conv := range convs {
		for _, req := range conv.lines[:conv.distinct] {
			if req.query {
				continue
			}
			for _, tok := range strings.Fields(string(req.line[1:])) {
				ts, ps, _ := strings.Cut(tok, ":")
				t, _ := strconv.Atoi(ts)
				p, _ := strconv.ParseUint(ps, 10, 64)
				if touched[p] == nil {
					touched[p] = map[int]bool{}
				}
				touched[p][t] = true
			}
		}
	}
	for _, ts := range touched {
		for a := range ts {
			for b := range ts {
				if a != b {
					m.Add(a, b, 1)
				}
			}
		}
	}
	return m
}

// serveLedger accounts the traced daemon's CPU to layers: per-call costs
// the probes measured times the calls the run made.
func serveLedger(r *daemonRun, layer map[string]float64) *ledger {
	ev := float64(r.events)
	return &ledger{Total: r.cpu, TotalName: "mapperd cpu_s (traced closed loop)", Rows: []ledgerRow{
		{"serve", (layer["serve.conn_ns_per_event"] - layer["serve.ingest_ns_per_event"]) * ev / 1e9,
			"(ServeConn - IngestFrom) ns/event x events: parse and respond"},
		{"ingest", layer["serve.ingest_ns_per_event"] * ev / 1e9, "IngestFrom ns/event x events: enqueue"},
		{"tlb", layer["tlb.lookup_ns"] * ev / 1e9, "Lookup/Insert ns x events applied"},
		{"query", float64(r.queries) * layer["serve.query_us"] / 1e6, "Query us x queries: comm epoch and mapping.Observe"},
	}}
}

// copyDir copies a state directory tree.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, info.Mode())
	})
}
