package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// buildLog writes n records into dir and returns the segment paths in
// order plus each record's payload.
func buildLog(t *testing.T, dir string, n, segmentBytes int) (paths []string, payloads [][]byte) {
	t.Helper()
	l, err := Open(dir, Options{SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := []byte(fmt.Sprintf("payload-%03d-%s", i, strings.Repeat("x", i%7)))
		payloads = append(payloads, p)
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segmentSuffix) {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return paths, payloads
}

// recoverCount opens dir and returns how many records replay plus whether
// truncation was reported. Recovery must never panic and never produce a
// record that was not appended verbatim.
func recoverCount(t *testing.T, dir string, payloads [][]byte) (n int, truncated bool) {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after damage: %v", err)
	}
	defer l.Close()
	err = l.Replay(func(seq uint64, payload []byte) error {
		idx := int(seq) - 1
		if idx < 0 || idx >= len(payloads) {
			t.Fatalf("recovered unknown seq %d", seq)
		}
		if string(payload) != string(payloads[idx]) {
			t.Fatalf("recovered record %d differs from what was appended", seq)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatalf("Replay after damage: %v", err)
	}
	return n, l.Truncated != nil
}

// TestTruncateAtEveryOffset is the table-driven recovery battery of the
// issue: the log is truncated at every byte offset of its final segment —
// every record boundary and every mid-record position — and recovery must
// (a) never panic, (b) recover exactly the records wholly before the cut,
// and (c) leave the log appendable.
func TestTruncateAtEveryOffset(t *testing.T) {
	const records = 12
	master := t.TempDir()
	paths, payloads := buildLog(t, master, records, 1<<20) // single segment
	if len(paths) != 1 {
		t.Fatalf("expected a single segment, got %d", len(paths))
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries in the segment, computed from the framing.
	boundaries := []int{0}
	off := 0
	for off < len(data) {
		n, _, _, err := parseRecord(data[off:], 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		off += n
		boundaries = append(boundaries, off)
	}
	recordsBefore := func(cut int) int {
		n := 0
		for _, b := range boundaries[1:] {
			if b <= cut {
				n++
			}
		}
		return n
	}

	dir := t.TempDir()
	for cut := 0; cut <= len(data); cut++ {
		resetLog(t, dir, map[string][]byte{filepath.Base(paths[0]): data[:cut]})
		got, truncated := recoverCount(t, dir, payloads)
		want := recordsBefore(cut)
		if got != want {
			t.Fatalf("cut at byte %d: recovered %d records, want %d", cut, got, want)
		}
		wantTrunc := cut != boundaries[len(boundaries)-1] && cut != 0 && !isBoundary(boundaries, cut)
		_ = wantTrunc // a cut exactly on a boundary is a clean (shorter) log
		if got < records && isBoundary(boundaries, cut) && truncated {
			t.Fatalf("cut at boundary %d: clean prefix misreported as truncated", cut)
		}
		if !isBoundary(boundaries, cut) && !truncated {
			t.Fatalf("cut at byte %d (mid-record): truncation not reported", cut)
		}

		// The damaged-then-recovered log must accept new appends.
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append([]byte("continue")); err != nil {
			t.Fatalf("cut at byte %d: append after recovery: %v", cut, err)
		}
		l.Close()
	}
}

// resetLog makes dir hold exactly the segment files in image, byte for
// byte, so a test can damage and recover one directory case after case
// instead of paying a fresh temporary directory per case. Files outside
// image (segments a previous case's append created) are removed; an image
// file whose content differs is rewritten in place. Writing over the old
// bytes and then setting the length avoids truncating to zero, after which
// ext4 (auto_da_alloc) flushes the file on close.
func resetLog(t *testing.T, dir string, image map[string][]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, keep := image[e.Name()]; !keep {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, want := range image {
		path := filepath.Join(dir, name)
		if got, err := os.ReadFile(path); err == nil && bytes.Equal(got, want) {
			continue
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		_, werr := f.WriteAt(want, 0)
		if err := errors.Join(werr, f.Truncate(int64(len(want))), f.Close()); err != nil {
			t.Fatal(err)
		}
	}
}

func isBoundary(boundaries []int, cut int) bool {
	for _, b := range boundaries {
		if b == cut {
			return true
		}
	}
	return false
}

// TestByteFlipTruncatesAtFirstBadRecord flips a byte at every offset of a
// multi-segment log (one damaged copy per offset): recovery must keep
// exactly the records before the damaged one and drop everything at and
// after it — including whole later segments.
func TestByteFlipTruncatesAtFirstBadRecord(t *testing.T) {
	const records = 30
	master := t.TempDir()
	paths, payloads := buildLog(t, master, records, 128) // several segments
	if len(paths) < 3 {
		t.Fatalf("expected several segments, got %d", len(paths))
	}

	// Per segment: record count and the boundary offsets within it.
	type segInfo struct {
		path       string
		data       []byte
		recsBefore int // records in earlier segments
		bounds     []int
	}
	var segs []segInfo
	total := 0
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		si := segInfo{path: p, data: data, recsBefore: total, bounds: []int{0}}
		off := 0
		for off < len(data) {
			n, _, _, err := parseRecord(data[off:], 16<<20)
			if err != nil {
				t.Fatal(err)
			}
			off += n
			si.bounds = append(si.bounds, off)
			total++
		}
		segs = append(segs, si)
	}
	if total != records {
		t.Fatalf("accounted for %d records, want %d", total, records)
	}

	image := map[string][]byte{}
	for _, si := range segs {
		image[filepath.Base(si.path)] = si.data
	}

	dir := t.TempDir()
	for si, seg := range segs {
		name := filepath.Base(seg.path)
		for off := 0; off < len(seg.data); off += 3 { // every 3rd byte keeps runtime sane
			bad := append([]byte(nil), seg.data...)
			bad[off] ^= 0x01
			image[name] = bad
			resetLog(t, dir, image)
			image[name] = seg.data
			got, truncated := recoverCount(t, dir, payloads)
			// The flipped byte damages the record containing that offset;
			// everything before it must survive, nothing after may.
			rec := 0
			for rec+1 < len(seg.bounds) && seg.bounds[rec+1] <= off {
				rec++
			}
			want := seg.recsBefore + rec
			if got != want {
				t.Fatalf("flip in segment %d at offset %d: recovered %d records, want %d",
					si, off, got, want)
			}
			if !truncated {
				t.Fatalf("flip in segment %d at offset %d: truncation not reported", si, off)
			}
		}
	}
}
