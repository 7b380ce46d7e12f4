package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Parent is the ID of the span that caused it (0 for none).
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// totals returns, per span name, the summed self time (duration minus the
// part covered by child spans) and the number of spans.
func (t *tracer) totals() (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	if t == nil {
		return self, count
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[s.ID]
		count[s.Name]++
	}
	return self, count
}

// write stores every span as one tab-separated line: id, parent, name,
// start and end in nanoseconds since the tracer started.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledgerRow is one layer's share of an end-to-end time.
type ledgerRow struct {
	Layer   string
	Seconds float64
	How     string // what the row was measured from
}

// ledger is the per-layer account of one end-to-end time: the rows plus
// whatever they leave unexplained.
type ledger struct {
	Total     float64 // end-to-end seconds being explained
	TotalName string
	Rows      []ledgerRow
}

// Residual is the part of the total no row explains (negative when the
// rows over-explain it).
func (l ledger) Residual() float64 {
	r := l.Total
	for _, row := range l.Rows {
		r -= row.Seconds
	}
	return r
}

// print renders the ledger: one row per layer with its time and share of
// the total, then the residual.
func (l ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger of %s = %.4f s\n", l.TotalName, l.Total)
	rows := append([]ledgerRow(nil), l.Rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Seconds > rows[j].Seconds })
	share := func(s float64) float64 {
		if l.Total == 0 {
			return 0
		}
		return 100 * s / l.Total
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %10.4f s %6.1f%%  %s\n", r.Layer, r.Seconds, share(r.Seconds), r.How)
	}
	fmt.Fprintf(w, "  %-10s %10.4f s %6.1f%%  %s\n", "residual", l.Residual(), share(l.Residual()),
		"total minus the rows above")
	fmt.Fprintln(w, "  "+strings.Repeat("-", 40))
}
