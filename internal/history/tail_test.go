package history

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Append finds the next Seq by reading the store backwards, and Get
// decodes only what it returns. These tests pin both to the answers the
// full decode of Records gives, on stores shaped by torn writes, manual
// edits and oversized records.

// fullScanMaxSeq is Append's original answer: the largest Seq over
// every record Records decodes, 0 for none.
func fullScanMaxSeq(t *testing.T, s *Store) int {
	t.Helper()
	recs, _, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	maxSeq := 0
	for _, r := range recs {
		maxSeq = max(maxSeq, r.Seq)
	}
	return maxSeq
}

// fullScanGet is Get's original implementation, on Records.
func fullScanGet(s *Store, seq int) (*Record, error) {
	recs, _, err := s.Records()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("history: store %s is empty", s.path)
	}
	if seq == 0 {
		seq = -1
	}
	if seq < 0 {
		i := len(recs) + seq
		if i < 0 {
			return nil, fmt.Errorf("history: store has %d records, no record %d from the end", len(recs), -seq)
		}
		return recs[i], nil
	}
	for _, r := range recs {
		if r.Seq == seq {
			return r, nil
		}
	}
	return nil, fmt.Errorf("history: no record with seq %d (store has %d records)", seq, len(recs))
}

func recordLine(t *testing.T, seq int, note string) string {
	t.Helper()
	b, err := json.Marshal(&Record{Seq: seq, Key: fmt.Sprintf("k%d", seq), Note: note})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// tailStores are store contents (nil = no file) that a backward scan
// could misread.
func tailStores(t *testing.T) map[string]*string {
	str := func(parts ...string) *string {
		s := strings.Join(parts, "")
		return &s
	}
	r := func(seq int) string { return recordLine(t, seq, "") }
	long := recordLine(t, 3, strings.Repeat("x", 3*tailWindow))
	return map[string]*string{
		"absent":           nil,
		"empty":            str(),
		"blank-only":       str("\n  \n\n"),
		"clean":            str(r(1), r(2), r(3)),
		"torn-tail":        str(r(1), r(2), `{"seq":9,"half`),
		"torn-tail-nl":     str(r(1), r(2), `{"seq":9,"half`+"\n"),
		"unterminated":     str(r(1), strings.TrimSuffix(r(2), "\n")),
		"blank-lines":      str("\n", r(1), "\n\n  \n", r(2), "\n\n"),
		"crlf":             str(strings.Replace(r(1), "\n", "\r\n", 1), strings.Replace(r(2), "\n", "\r\n", 1)),
		"corrupt-interior": str(r(1), "garbage\n", r(2), "{\"seq\":\n", r(3), "{]\n"),
		"json-not-record": str(r(1), r(2), "[1,2]\n", `{"seq":"x"}`+"\n", `{"note":5}`+"\n", `"str"`+"\n",
			"null\n", `{"foo":1}`+"\n", `{"seq":-4}`+"\n"),
		"only-non-records":   str("[1]\n", "null\n", `{"foo":1}`+"\n"),
		"dup-seq":            str(r(1), r(2), r(2)),
		"long-last-record":   str(r(1), r(2), long),
		"long-then-torn":     str(r(1), long, `{"seq":9,`),
		"long-interior":      str(r(1), long, r(4)),
		"window-sized-junk":  str(r(1), r(2), strings.Repeat("z", tailWindow+17)+"\n"),
		"seq-only-decodable": str(r(1), r(2), `{"seq":2,"time":5}`+"\n", `{"seq":7,"bench":"x"}`+"\n"),
	}
}

func writeStore(t *testing.T, content *string) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	if content != nil {
		if err := os.WriteFile(path, []byte(*content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return Open(path)
}

func TestAppendSeqMatchesFullScan(t *testing.T) {
	for name, content := range tailStores(t) {
		t.Run(name, func(t *testing.T) {
			s := writeStore(t, content)
			want := fullScanMaxSeq(t, s)
			got, err := s.lastSeq()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("lastSeq = %d, full scan says %d", got, want)
			}
			r, err := s.Append(&Record{Key: "new"})
			if err != nil {
				t.Fatal(err)
			}
			if r.Seq != want+1 {
				t.Fatalf("Append assigned seq %d, want %d", r.Seq, want+1)
			}
			if content != nil && *content != "" && !strings.HasSuffix(*content, "\n") {
				// An unterminated tail swallows the appended line, as it
				// always has; simprofd runs RecoverTail at open first.
				return
			}
			if got, err := s.Get(r.Seq); err != nil || got.Key != "new" {
				t.Fatalf("Get(%d) after Append: %+v, %v", r.Seq, got, err)
			}
		})
	}
}

func TestGetMatchesFullScan(t *testing.T) {
	for name, content := range tailStores(t) {
		t.Run(name, func(t *testing.T) {
			s := writeStore(t, content)
			for seq := -6; seq <= 10; seq++ {
				want, wantErr := fullScanGet(s, seq)
				got, err := s.Get(seq)
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("Get(%d): err %v, full scan err %v", seq, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Get(%d) = %+v, full scan gives %+v", seq, got, want)
				}
			}
		})
	}
}

// BenchmarkStoreAppendGet times one Append and one Get(seq) on a store
// of 1000 manifest-carrying records, the shape a long-running simprofd
// reaches.
func BenchmarkStoreAppendGet(b *testing.B) {
	path := filepath.Join(b.TempDir(), "hist.jsonl")
	s := Open(path)
	for i := 0; i < 1000; i++ {
		if _, err := s.Append(FromManifest(testManifest("simprofd", uint64(i), 0.01))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Append(FromManifest(testManifest("simprofd", 1, 0.01)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Get(r.Seq - 500); err != nil {
			b.Fatal(err)
		}
	}
}
