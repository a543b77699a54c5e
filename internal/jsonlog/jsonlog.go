// Package jsonlog owns the on-disk format and crash rules shared by the
// run journal (internal/experiments) and the sweep coordinator's
// write-ahead log (internal/sweep). Both are thin record-type layers
// over it.
//
// Format: one JSON record per '\n'-terminated line; the first line is a
// header that identifies the run the file belongs to. A line is valid
// when it is '\n'-terminated AND decodes as the caller's record type,
// and the valid prefix is every line before the first invalid one.
// Replay reads that prefix and nothing past it. An unterminated final
// line counts as torn even when it happens to decode: the writer only
// ever emits whole lines, so a missing '\n' means the write was cut
// short (a host crash), and keeping the line would glue the next append
// onto it. A line longer than 64 MiB also ends the valid prefix.
//
// Open applies the crash rules before any append:
//   - the parent directory is created;
//   - a file whose first valid line fails the caller's header predicate
//     belongs to another run: it is renamed to path+".stale", or the
//     first free path+".stale.N", so no earlier backup is overwritten,
//     and the log starts empty;
//   - otherwise the torn tail past the valid prefix is truncated away,
//     so the first new record starts on a line boundary.
//
// Each Append marshals its record and writes it with exactly one Write
// under a mutex. Concurrent appends therefore never interleave, and a
// crash can tear at most the final line, which the next Open truncates:
// everything appended before it survives. Appends are not synced one by
// one; Close syncs, Kill (modelling SIGKILL) does not, and every append
// after either fails.
package jsonlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// maxLine caps one record line; traces make long lines.
const maxLine = 64 << 20

// Log is a JSONL log open for appends. Safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	n    uint64 // records appended through this Log
	done bool   // closed or killed: appends fail
}

// Open opens (or creates) the log at path and streams its valid prefix
// to replay, one record at a time in file order, starting with the
// header; first judges the header, and a file whose header it rejects
// is rotated aside (see the package doc). The torn tail is truncated
// and the Log is positioned for appends. replayed counts the records
// passed to replay: 0 means the log starts empty and the caller should
// append its header.
func Open[T any](path string, first func(T) bool, replay func(T)) (l *Log, replayed int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	valid, replayed, foreign, err := scan(f, first, replay)
	if err == nil && foreign {
		// A valid file for another run: keep it for forensics, start fresh.
		f.Close()
		if err := os.Rename(path, staleName(path)); err != nil {
			return nil, 0, err
		}
		if f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644); err != nil {
			return nil, 0, err
		}
	}
	if err == nil {
		err = f.Truncate(valid)
	}
	if err == nil {
		_, err = f.Seek(valid, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return &Log{f: f}, replayed, nil
}

// Replay streams the valid prefix of the log at path to replay exactly
// as Open does, without opening the file for appends or changing it. A
// missing file, or one whose header first rejects, replays nothing.
func Replay[T any](path string, first func(T) bool, replay func(T)) (replayed int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	_, replayed, _, err = scan(f, first, replay)
	return replayed, err
}

// scan reads f from its start and passes each record of the valid
// prefix to replay. It returns the prefix length in bytes and the
// number of records replayed. foreign reports a first valid line that
// first rejects; nothing is replayed then.
func scan[T any](f *os.File, first func(T) bool, replay func(T)) (valid int64, replayed int, foreign bool, err error) {
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, maxLine) // grows from 4 KiB only as long lines need
	sc.Split(scanLines)
	for sc.Scan() {
		line := sc.Bytes()
		var rec T
		if line[len(line)-1] != '\n' || json.Unmarshal(line, &rec) != nil {
			break // torn or corrupt: everything from here on is discarded
		}
		if replayed == 0 && !first(rec) {
			return 0, 0, true, nil
		}
		replay(rec)
		replayed++
		valid += int64(len(line))
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return 0, 0, false, err
	}
	return valid, replayed, false, nil
}

// scanLines is a bufio.SplitFunc yielding each line with its '\n', so
// the token lengths sum to exact file offsets and an unterminated tail
// is visible as a token without one. (bufio.ScanLines drops the '\n'
// and a preceding '\r'.)
func scanLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// staleName picks the backup name a superseded log is renamed to:
// path+".stale" when free, else the first free path+".stale.N". A sweep
// that flip-flops between runs keeps one numbered backup per flip.
func staleName(path string) string {
	name := path + ".stale"
	for n := 1; ; n++ {
		if _, err := os.Lstat(name); os.IsNotExist(err) {
			return name
		}
		name = fmt.Sprintf("%s.stale.%d", path, n)
	}
}

// Append writes rec as one line with a single Write and returns its
// sequence number among this Log's appends (1 for the first). A non-nil
// error means the record is not in the log.
func (l *Log) Append(rec any) (uint64, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return 0, errors.New("jsonlog: log closed")
	}
	if _, err := l.f.Write(data); err != nil {
		return 0, err
	}
	l.n++
	return l.n, nil
}

// Close syncs and closes the log; later appends fail. Closing a closed
// or killed log is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return nil
	}
	l.done = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Kill models SIGKILL: the file closes without a sync and every later
// append fails, so a dead writer can never corrupt the file its
// successor reopens.
func (l *Log) Kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.done {
		l.done = true
		l.f.Close()
	}
}

// WriteFile atomically replaces path with a complete log holding
// records in order, the header first: temp file, fsync, rename, so a
// crash never leaves a half-written log under the live name.
func WriteFile[T any](path string, records []T) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".jsonlog-*")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w) // Encode appends exactly one '\n' per record
	for _, rec := range records {
		if err = enc.Encode(rec); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
