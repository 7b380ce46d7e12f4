package main

import (
	"bufio"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // reversed: percentile must sort
	}
	p := percentile(xs, 0.99)
	if p.Value != 990 || p.Beyond != 10 || p.N != 1000 || !p.OK() {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990 with 10 beyond", p)
	}
	p = percentile(xs, 0.5)
	if p.Value != 500 || p.Beyond != 500 {
		t.Fatalf("p50 of 1..1000 = %+v, want 500 with 500 beyond", p)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p := percentile(xs, 0.99); p.OK() {
		t.Fatalf("p99 of 999 samples reported as supported: %+v", p)
	}
	if p := percentile(nil, 0.5); p.OK() || p.N != 0 {
		t.Fatalf("percentile of no samples: %+v", p)
	}
	one := []float64{7}
	if p := percentile(one, 0.5); p.Value != 7 || p.Beyond != 0 || p.OK() {
		t.Fatalf("p50 of one sample: %+v", p)
	}
}

func TestMedianAndGmean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if xs[0] != 4 {
		t.Fatal("median modified its input")
	}
	if g := gmean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("gmean(1,4) = %v", g)
	}
}

func TestSendOffsetSchedule(t *testing.T) {
	// 2 connections at 1000 req/s combined: each sends every 2ms, the
	// second staggered by 1ms, so merged arrivals are 1ms apart.
	var merged []time.Duration
	for k := 0; k < 3; k++ {
		for c := 0; c < 2; c++ {
			merged = append(merged, sendOffset(k, c, 2, 1000))
		}
	}
	for i, d := range merged {
		if want := time.Duration(i) * time.Millisecond; d != want {
			t.Fatalf("arrival %d due at %v, want %v", i, d, want)
		}
	}
	if n := requestsIn(2*time.Second, 2, 1000); n != 1000 {
		t.Fatalf("requestsIn = %d, want 1000 per connection", n)
	}
}

func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	// One connection at 1000 requests/s over a synchronous pipe; the
	// server stalls 30ms before answering the first request. The writer
	// blocks behind the stall, so requests go out late; each latency must
	// still run from the request's due time, and the lateness must show.
	const n, stall = 20, 30 * time.Millisecond
	conv := &conversation{tenant: "t", threads: 1}
	for k := 0; k < n; k++ {
		conv.lines = append(conv.lines, request{line: []byte("E 0:1\n"), events: 1})
	}
	dial := func() (net.Conn, error) {
		cli, srv := net.Pipe()
		go func() {
			defer srv.Close()
			rd := bufio.NewReader(srv)
			for k := 0; ; {
				line, err := rd.ReadString('\n')
				if err != nil {
					return
				}
				resp := "OK seq=0\n"
				switch {
				case strings.HasPrefix(line, "BYE"):
					io.WriteString(srv, "OK bye\n")
					return
				case strings.HasPrefix(line, "E "):
					if k == 0 {
						time.Sleep(stall)
					}
					k++
					resp = "OK 1\n"
				}
				io.WriteString(srv, resp)
			}
		}()
		return cli, nil
	}
	ph, err := openLoop(dial, []*conversation{conv}, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed != 0 || len(ph.ackUs) != n {
		t.Fatalf("failed=%d acks=%d %v, want 0 failed and %d acks", ph.failed, len(ph.ackUs), ph.failures, n)
	}
	for k, lat := range ph.ackUs {
		// Request k is due k ms in and cannot be answered before the
		// stall ends.
		if floor := float64((stall - time.Duration(k)*time.Millisecond).Microseconds()); lat < floor {
			t.Fatalf("request %d latency %.0fus, below the %.0fus its due time puts it behind the stall", k, lat, floor)
		}
	}
	if late := percentile(ph.lateUs, 1); late.Value < 10000 {
		t.Fatalf("max generator lateness %.0fus: the blocked writer's lateness was not recorded", late.Value)
	}
}

func TestBacklogGrew(t *testing.T) {
	if backlogGrew(time.Second, time.Second+500*time.Microsecond, time.Millisecond) {
		t.Fatal("a phase that finished one latency after its last due time has no backlog")
	}
	if !backlogGrew(time.Second, time.Second+50*time.Millisecond, time.Millisecond) {
		t.Fatal("a phase that finished 50ms late grew a backlog")
	}
}
