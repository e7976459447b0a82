// Package history is SimProf's cross-run observability store: an
// append-only JSONL file of run records, each holding the telemetry
// manifest of one pipeline run and/or one parsed benchmark snapshot,
// keyed by the binary's VCS stamp plus the workload and seeds that
// ran. On top of the store sit the two consumers that connect runs
// over time: Diff (stage-level span deltas, metric deltas and
// estimate/SE/CI drift between any two runs) and Gate (a noise-aware
// perf-regression check over bench snapshots).
//
// The store format is one JSON object per line. Appends never rewrite
// existing bytes, so a crashed writer can at worst leave a truncated
// final line — readers skip it and report how many lines they skipped
// instead of failing the whole store.
package history

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"simprof/internal/obs"
)

// Record is one line of the history store.
type Record struct {
	// Seq is the 1-based position in the store, assigned at append time.
	Seq int `json:"seq"`
	// Time is the wall-clock append time, RFC3339 UTC.
	Time string `json:"time,omitempty"`
	// Key groups comparable runs: VCS revision + tool + workload + seed.
	Key string `json:"key"`
	// Revision/Modified mirror the manifest's build stamp so `history
	// list` can render provenance without unpacking the manifest.
	Revision string `json:"revision,omitempty"`
	Modified bool   `json:"modified,omitempty"`
	Tool     string `json:"tool,omitempty"`
	Note     string `json:"note,omitempty"`

	Manifest *obs.Manifest `json:"manifest,omitempty"`
	Bench    []BenchResult `json:"bench,omitempty"`
}

// Key derives the record grouping key from a manifest: the VCS
// revision (short), the tool, the workload identity and its seed.
// Sections a manifest does not carry contribute "-" so keys stay
// comparable across tools.
func Key(m *obs.Manifest) string {
	if m == nil {
		return "-/-/-/-"
	}
	rev := m.Build.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev == "" {
		rev = "-"
	}
	tool := m.Tool
	if tool == "" {
		tool = "-"
	}
	wl, seed := "-", "-"
	if w := m.Workload; w != nil {
		wl = w.Benchmark + "_" + w.Framework
		seed = fmt.Sprintf("seed=%d", w.Seed)
	}
	return strings.Join([]string{rev, tool, wl, seed}, "/")
}

// FromManifest builds a record shell for a manifest: key, build
// provenance and the manifest itself. The caller appends it (which
// assigns Seq and Time) and may attach Bench results first.
func FromManifest(m *obs.Manifest) *Record {
	r := &Record{Key: Key(m), Manifest: m}
	if m != nil {
		r.Revision = m.Build.Revision
		r.Modified = m.Build.Modified
		r.Tool = m.Tool
	}
	return r
}

// Store is a handle on a JSONL history file. The zero value is not
// usable; construct with Open (or OpenDurable for fsync-on-commit
// appends). Opening does not touch the filesystem — a store that was
// never appended to reads as empty.
type Store struct {
	path    string
	durable bool // Append fsyncs before acknowledging
}

// Open returns a handle on the store at path.
func Open(path string) *Store { return &Store{path: path} }

// Path returns the store's file path.
func (s *Store) Path() string { return s.path }

// Records reads every parseable record in append order and the number
// of corrupt/truncated lines skipped (non-zero only after a torn write
// or manual editing; the data that is there still loads).
func (s *Store) Records() (recs []*Record, skipped int, err error) {
	err = s.scanForward(func(line []byte) bool {
		if r, ok := decodeRecord(line); ok {
			recs = append(recs, r)
		} else {
			skipped++
		}
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	return recs, skipped, nil
}

// scanForward calls fn on every non-blank line of the store, trimmed,
// in append order, until fn returns false. An absent store has no
// lines.
func (s *Store) scanForward(fn func(line []byte) bool) error {
	f, err := os.Open(s.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("history: open %s: %w", s.path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) > 0 && !fn(line) {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("history: read %s: %w", s.path, err)
	}
	return nil
}

// Get returns the record with the given Seq, or the last record when
// seq is 0. Negative seq counts from the end (-1 = last, -2 = one
// before it). Lines count as records exactly as in Records. A positive
// seq scans forward decoding only each line's seq and fully decodes
// just the match; zero and negative seqs decode backwards from the end
// of the file only as far as the record asked for.
func (s *Store) Get(seq int) (*Record, error) {
	if seq > 0 {
		return s.getSeq(seq)
	}
	if seq == 0 {
		seq = -1
	}
	var found *Record
	count := 0
	err := s.scanBackward(func(line []byte) bool {
		r, ok := decodeRecord(line)
		if !ok {
			return true
		}
		count++
		if count == -seq {
			found = r
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if found != nil {
		return found, nil
	}
	if count == 0 {
		return nil, fmt.Errorf("history: store %s is empty", s.path)
	}
	return nil, fmt.Errorf("history: store has %d records, no record %d from the end", count, -seq)
}

// getSeq is Get for a positive seq: the first record in append order
// whose Seq matches.
func (s *Store) getSeq(seq int) (*Record, error) {
	var found *Record
	err := s.scanForward(func(line []byte) bool {
		// A line that does not decode into its seq alone cannot decode
		// into a Record either; one that does may still fail the full
		// decode, and then it is skipped just as Records skips it.
		var head struct {
			Seq int `json:"seq"`
		}
		if json.Unmarshal(line, &head) != nil || head.Seq != seq {
			return true
		}
		found, _ = decodeRecord(line)
		return found == nil
	})
	if err != nil || found != nil {
		return found, err
	}
	// Not found: the error names the record count, which only a full
	// decode can give.
	recs, _, err := s.Records()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("history: store %s is empty", s.path)
	}
	return nil, fmt.Errorf("history: no record with seq %d (store has %d records)", seq, len(recs))
}

// decodeRecord parses one store line the way Records does: blank lines
// and lines that do not unmarshal into a Record are not records.
func decodeRecord(line []byte) (*Record, bool) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return nil, false
	}
	var r Record
	if json.Unmarshal(line, &r) != nil {
		return nil, false
	}
	return &r, true
}

// tailWindow is the first read of a backward scan; each further read
// doubles it, so a scan costs O(bytes examined) however long the lines.
const tailWindow = 64 << 10

// scanBackward calls fn on every line of the store, last line first,
// until fn returns false. It reads the file backwards from the end in
// growing windows, so a caller that stops at the last few lines never
// reads the rest. An unterminated final line (a torn append) is a line
// too, as it is for Records. An absent store has no lines.
func (s *Store) scanBackward(fn func(line []byte) bool) error {
	f, err := os.Open(s.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("history: open %s: %w", s.path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("history: stat %s: %w", s.path, err)
	}
	// pending holds the file's bytes [lo, hi), where hi is the start of
	// the earliest line already handed to fn.
	var pending []byte
	lo := st.Size()
	window := int64(tailWindow)
	for {
		for {
			nl := bytes.LastIndexByte(pending, '\n')
			if nl < 0 && lo > 0 {
				break // the line may start before lo: read more
			}
			if !fn(pending[nl+1:]) || nl < 0 {
				return nil
			}
			pending = pending[:nl]
		}
		n := min(window, lo)
		buf := make([]byte, n+int64(len(pending)))
		if _, err := f.ReadAt(buf[:n], lo-n); err != nil {
			return fmt.Errorf("history: read %s: %w", s.path, err)
		}
		copy(buf[n:], pending)
		pending, lo = buf, lo-n
		window *= 2
	}
}

// lastSeq is the highest Seq in the store, as a scan of Records would
// find it: Append only ever writes max+1 at the end, so the last line
// that decodes as a Record with a positive Seq holds the maximum. Lines
// with Seq ≤ 0 (valid JSON that is not a real record) cannot raise the
// maximum above 0 and are passed over. It is 0 for an empty store.
func (s *Store) lastSeq() (int, error) {
	last := 0
	err := s.scanBackward(func(line []byte) bool {
		if r, ok := decodeRecord(line); ok && r.Seq > 0 {
			last = r.Seq
			return false
		}
		return true
	})
	return last, err
}

// Append assigns the record's Seq (and Time, if unset) and appends it
// as one JSON line. The record is returned for convenience. Finding the
// next Seq reads the store backwards only as far as its last record.
func (s *Store) Append(r *Record) (*Record, error) {
	maxSeq, err := s.lastSeq()
	if err != nil {
		return nil, err
	}
	r.Seq = maxSeq + 1
	if r.Time == "" {
		r.Time = time.Now().UTC().Format(time.RFC3339)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("history: marshal record: %w", err)
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("history: append %s: %w", s.path, err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return nil, fmt.Errorf("history: append %s: %w", s.path, err)
	}
	if s.durable {
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("history: sync %s: %w", s.path, err)
		}
		obsFsyncs.Inc()
	}
	return r, f.Close()
}
