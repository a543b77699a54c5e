package jsonlog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// entry decodes the identity fields every journal and WAL line carries;
// the rest of a line is ignored, as the real record types ignore
// unknown fields.
type entry struct {
	Kind    string `json:"kind"`
	Version int    `json:"version,omitempty"`
	Scale   int    `json:"scale,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`
}

// header is what a caller appends when its log starts empty.
var header = entry{Kind: "header", Version: 1, Scale: 7}

// first accepts a journal header or a WAL epoch entry of version 1.
func first(e entry) bool { return (e.Kind == "header" || e.Kind == "epoch") && e.Version == 1 }

// validPrefix is the reference rule, written without a scanner: the
// leading '\n'-terminated lines that decode, up to the first that does
// not. foreign reports a first valid line that first rejects.
func validPrefix(data []byte) (n int, recs []entry, foreign bool) {
	for {
		i := bytes.IndexByte(data[n:], '\n')
		if i < 0 {
			return n, recs, false
		}
		var e entry
		if json.Unmarshal(data[n:n+i+1], &e) != nil {
			return n, recs, false
		}
		if recs == nil && !first(e) {
			return 0, nil, true
		}
		recs = append(recs, e)
		n += i + 1
	}
}

// openAll opens path and returns the log plus every replayed record.
func openAll(t *testing.T, path string) (*Log, []entry) {
	t.Helper()
	var recs []entry
	l, replayed, err := Open(path, first, func(e entry) { recs = append(recs, e) })
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if replayed != len(recs) {
		t.Fatalf("open reported %d records, replayed %d", replayed, len(recs))
	}
	return l, recs
}

// FuzzLogReplay feeds arbitrary file bytes to Open. It must never
// panic, must leave the file as exactly its valid prefix (plus the
// caller's header when it starts empty), must rotate a foreign file
// aside byte for byte, and a reopen must replay the same records
// without touching the file. The seed corpus under testdata/fuzz holds
// prefixes of a real run journal and a real coordinator WAL.
func FuzzLogReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "log.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		// One file per worker process, reset per input: a fresh TempDir
		// per input costs more than the replay under test.
		os.Remove(path + ".stale")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n, want, foreign := validPrefix(data)

		var peek []entry
		if _, err := Replay(path, first, func(e entry) { peek = append(peek, e) }); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if !reflect.DeepEqual(peek, want) {
			t.Fatalf("read-only replay = %+v, want %+v", peek, want)
		}

		l, got := openAll(t, path)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("open replayed %+v, want %+v", got, want)
		}
		wantFile := data[:n:n]
		if len(got) == 0 {
			if _, err := l.Append(header); err != nil {
				t.Fatal(err)
			}
			line, _ := json.Marshal(header)
			wantFile = append(append(wantFile, line...), '\n')
			want = []entry{header}
		}
		l.Kill() // no fsync: the page cache is all a reread needs
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, wantFile) {
			t.Fatalf("file after open = %q, want %q", file, wantFile)
		}
		stale, err := os.ReadFile(path + ".stale")
		if foreign != (err == nil) || foreign && !bytes.Equal(stale, data) {
			t.Fatalf("foreign=%v but .stale read gave err=%v (%d bytes)", foreign, err, len(stale))
		}

		l, again := openAll(t, path)
		l.Kill()
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("reopen replayed %+v, want %+v", again, want)
		}
		if file2, _ := os.ReadFile(path); !bytes.Equal(file2, file) {
			t.Fatalf("reopen changed the file: %q -> %q", file, file2)
		}
	})
}

// TestAppendAfterCloseOrKill pins the one closed/killed flag: both end
// the log, appends after either fail, and Close stays idempotent. Open
// also creates the missing parent directory.
func TestAppendAfterCloseOrKill(t *testing.T) {
	for _, kill := range []bool{false, true} {
		l, _ := openAll(t, filepath.Join(t.TempDir(), "sub", "log.jsonl"))
		if n, err := l.Append(header); n != 1 || err != nil {
			t.Fatalf("first append = %d, %v", n, err)
		}
		if kill {
			l.Kill()
		} else if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(header); err == nil {
			t.Fatalf("append after kill=%v succeeded", kill)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
		l.Kill()
	}
}

// TestConcurrentAppendsNeverInterleave writes from many goroutines and
// requires every line to decode and every sequence number once.
func TestConcurrentAppendsNeverInterleave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _ := openAll(t, path)
	const writers, each = 8, 50
	var wg sync.WaitGroup
	seqs := make(chan uint64, writers*each)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				n, err := l.Append(entry{Kind: "epoch", Version: 1, Scale: w, Epoch: uint64(i)})
				if err != nil {
					t.Error(err)
				}
				seqs <- n
			}
		}(w)
	}
	wg.Wait()
	close(seqs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for n := range seqs {
		if seen[n] || n < 1 || n > writers*each {
			t.Fatalf("sequence number %d repeated or out of range", n)
		}
		seen[n] = true
	}
	data, _ := os.ReadFile(path)
	if n, recs, _ := validPrefix(data); n != len(data) || len(recs) != writers*each {
		t.Fatalf("valid prefix %d/%d bytes, %d records", n, len(data), len(recs))
	}
}

// TestWriteFileAtomic pins the whole-file write: the result replays to
// exactly the given records and no temp file is left behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	path := filepath.Join(dir, "merged.jsonl")
	recs := []entry{header, {Kind: "result", Scale: 1}, {Kind: "analysis", Scale: 2}}
	for pass := 0; pass < 2; pass++ { // the second pass replaces the first
		if err := WriteFile(path, recs); err != nil {
			t.Fatal(err)
		}
	}
	var got []entry
	if _, err := Replay(path, first, func(e entry) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %+v, want %+v", got, recs)
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Fatalf("directory holds %d entries, want only the log", len(names))
	}
}
