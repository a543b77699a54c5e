package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/jsonlog"
)

// walCoord opens a WAL-backed coordinator for the standard test config
// against path.
func walCoord(t *testing.T, path string) *Coordinator {
	t.Helper()
	c, err := NewWALCoordinator(testConfig(), path, nil, nil)
	if err != nil {
		t.Fatalf("NewWALCoordinator: %v", err)
	}
	return c
}

// completeNext claims the next cell and completes it with its full
// record set, returning the cell.
func completeNext(t *testing.T, c *Coordinator, now time.Time) Cell {
	t.Helper()
	lease, done := c.Claim("w", now)
	if done || lease == nil {
		t.Fatalf("claim: lease=%v done=%v", lease, done)
	}
	if err := c.Complete(lease.ID, recordsFor(lease.Cell), now); err != nil {
		t.Fatalf("complete %s: %v", lease.Cell, err)
	}
	return lease.Cell
}

// TestWALRestartRestoresState pins the crash-safe contract end to end
// at the state-machine level: complete some cells, SIGKILL the
// coordinator (WAL closed unsynced), restart against the same path,
// and the successor must restore the completions, bump the epoch,
// continue delivery numbering, and reject the dead incarnation's
// epoch.
func TestWALRestartRestoresState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	now := time.Unix(1000, 0)

	c1 := walCoord(t, path)
	if c1.Epoch() != 1 {
		t.Fatalf("fresh WAL epoch = %d, want 1", c1.Epoch())
	}
	cells := c1.cfg.Cells()
	done1 := []Cell{completeNext(t, c1, now), completeNext(t, c1, now)}
	// A lease left live at the kill: its cell must come back pending.
	liveLease, _ := c1.Claim("w", now)
	if liveLease == nil {
		t.Fatal("no live lease")
	}
	c1.Kill()

	// Post-kill mutations must not be acknowledged.
	if _, killedDone := c1.Claim("w", now); killedDone {
		t.Fatal("claim after kill reported done")
	}
	if err := c1.Complete(liveLease.ID, recordsFor(liveLease.Cell), now); !errors.Is(err, ErrWAL) {
		t.Fatalf("complete after kill: err=%v, want ErrWAL", err)
	}

	c2 := walCoord(t, path)
	st := c2.Stats()
	if c2.Epoch() != 2 || st.Epoch != 2 {
		t.Fatalf("restarted epoch = %d/%d, want 2", c2.Epoch(), st.Epoch)
	}
	if st.Restored != len(done1) || st.Done != len(done1) {
		t.Fatalf("restored %d done %d, want %d", st.Restored, st.Done, len(done1))
	}
	if err := c2.CheckEpoch(1); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("CheckEpoch(1) = %v, want ErrStaleEpoch", err)
	}
	if err := c2.CheckEpoch(0); err != nil {
		t.Fatalf("CheckEpoch(0) legacy = %v, want nil", err)
	}
	// The dead incarnation's live lease is orphaned, not restored.
	if err := c2.Heartbeat(liveLease.ID, now); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("heartbeat of orphaned lease = %v, want ErrStaleLease", err)
	}

	// Delivery numbering and lease IDs continue past the first
	// incarnation's high-water marks.
	next, done := c2.Claim("w", now)
	if done || next == nil {
		t.Fatal("no claimable cell after restart")
	}
	if next.ID <= liveLease.ID {
		t.Fatalf("lease ID %d did not advance past pre-crash %d", next.ID, liveLease.ID)
	}
	if next.Cell == liveLease.Cell && next.Delivery != liveLease.Delivery+1 {
		t.Fatalf("delivery %d, want %d", next.Delivery, liveLease.Delivery+1)
	}

	// Finishing the sweep from the restored state touches only the
	// missing cells, and the merged journal covers the full matrix.
	if err := c2.Complete(next.ID, recordsFor(next.Cell), now); err != nil {
		t.Fatal(err)
	}
	for !c2.Done() {
		completeNext(t, c2, now)
	}
	if got := len(c2.Merged()); got == 0 {
		t.Fatal("merged journal empty")
	}
	fin := c2.Stats()
	if fin.Completions != uint64(len(cells)-len(done1)) {
		t.Fatalf("second incarnation acked %d completions, want %d",
			fin.Completions, len(cells)-len(done1))
	}
	if err := c2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALDoubleRestart pins that recovery composes: two kills, each
// restart accumulating the prior completions, and the final
// incarnation finishing the sweep exactly-once.
func TestWALDoubleRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	now := time.Unix(1000, 0)

	c1 := walCoord(t, path)
	total := len(c1.cfg.Cells())
	completeNext(t, c1, now)
	c1.Kill()

	c2 := walCoord(t, path)
	if st := c2.Stats(); st.Restored != 1 {
		t.Fatalf("first restart restored %d, want 1", st.Restored)
	}
	completeNext(t, c2, now)
	completeNext(t, c2, now)
	c2.Kill()

	c3 := walCoord(t, path)
	if c3.Epoch() != 3 {
		t.Fatalf("epoch after two restarts = %d, want 3", c3.Epoch())
	}
	if st := c3.Stats(); st.Restored != 3 {
		t.Fatalf("second restart restored %d, want 3", st.Restored)
	}
	for !c3.Done() {
		completeNext(t, c3, now)
	}
	if st := c3.Stats(); st.Completions != uint64(total-3) {
		t.Fatalf("final incarnation acked %d, want %d", st.Completions, total-3)
	}
}

// TestWALRestartZeroCompleted pins the empty-progress restart: leases
// were granted but nothing completed, so the successor restores no
// cells yet still carries forward the epoch and delivery counts.
func TestWALRestartZeroCompleted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	now := time.Unix(1000, 0)

	c1 := walCoord(t, path)
	l1, _ := c1.Claim("w", now)
	if l1 == nil {
		t.Fatal("no lease")
	}
	c1.Kill()

	c2 := walCoord(t, path)
	st := c2.Stats()
	if st.Restored != 0 || st.Done != 0 {
		t.Fatalf("restored %d done %d, want 0", st.Restored, st.Done)
	}
	if c2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", c2.Epoch())
	}
	l2, _ := c2.Claim("w", now)
	if l2 == nil {
		t.Fatal("no lease after restart")
	}
	if l2.Cell != l1.Cell || l2.Delivery != l1.Delivery+1 {
		t.Fatalf("lease after restart = %+v, want same cell at delivery %d", l2, l1.Delivery+1)
	}
}

// doneCells lists the cells a coordinator holds done, in matrix order.
func doneCells(c *Coordinator) []Cell {
	var out []Cell
	for _, cell := range c.cells {
		if c.states[cell].done {
			out = append(out, cell)
		}
	}
	return out
}

// TestWALTruncatedAtEveryByteOffset mirrors the run journal's torn-tail
// test at the WAL layer: a coordinator crash (or a torn host write) may
// leave the file cut at ANY byte. Every prefix must replay without
// error into a valid state — exactly its complete lines, completed
// cells a subset of the full run's — and reopen into a working
// coordinator. Each sampled prefix is reopened twice, the first
// incarnation killed right away: the reopen must truncate the torn tail
// to the last complete line, and the second must restore the same
// completion set and finish the sweep.
func TestWALTruncatedAtEveryByteOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.wal")
	now := time.Unix(1000, 0)
	scale := testConfig().Scale

	c := walCoord(t, path)
	total := len(c.cfg.Cells())
	for !c.Done() {
		completeNext(t, c, now)
	}
	if err := c.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 || full[len(full)-1] != '\n' {
		t.Fatalf("unexpected WAL shape: %d bytes", len(full))
	}

	cut := filepath.Join(dir, "cut.wal")
	for n := 0; n <= len(full); n++ {
		if err := os.WriteFile(cut, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		st := newWALState()
		replayed, err := jsonlog.Replay(cut, walFirst(scale), st.apply)
		if err != nil {
			t.Fatalf("offset %d: replay error: %v", n, err)
		}
		// Every line of a real WAL is valid, so the valid prefix is
		// exactly the complete lines: fewer means a same-run prefix was
		// rejected (rotated) or cut short, more means a torn tail was
		// kept.
		good := bytes.LastIndexByte(full[:n], '\n') + 1
		if want := bytes.Count(full[:good], []byte("\n")); replayed != want {
			t.Fatalf("offset %d: replayed %d entries, want the %d complete lines", n, replayed, want)
		}
		if len(st.completed) > total {
			t.Fatalf("offset %d: %d completed cells from a %d-cell run", n, len(st.completed), total)
		}
		// Reopen as a coordinator and drive the remaining cells home:
		// every torn prefix must resume, never wedge. Replay itself is
		// checked at every offset; the reopen drive runs on a stride
		// sample plus the interesting tail region, keeping the test
		// inside tier-1 time under -race.
		if n%97 != 0 && n < len(full)-200 {
			continue
		}
		c1, err := NewWALCoordinator(testConfig(), cut, nil, nil)
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", n, err)
		}
		if got := c1.Stats().Restored; got != len(st.completed) {
			t.Fatalf("offset %d: restored %d, replay said %d", n, got, len(st.completed))
		}
		restored := doneCells(c1)
		c1.Kill()
		// The reopen truncated the torn tail, then appended exactly its
		// own epoch entry.
		data, err := os.ReadFile(cut)
		if err != nil {
			t.Fatal(err)
		}
		epoch, _ := json.Marshal(walEntry{Kind: "epoch", Version: walVersion, Scale: scale, Epoch: c1.Epoch()})
		if want := append(full[:good:good], append(epoch, '\n')...); !bytes.Equal(data, want) {
			t.Fatalf("offset %d: reopened WAL is not the %d-byte valid prefix plus one epoch entry", n, good)
		}
		if _, err := os.Stat(cut + ".stale"); err == nil {
			t.Fatalf("offset %d: a same-run prefix was rotated aside", n)
		}

		c2, err := NewWALCoordinator(testConfig(), cut, nil, nil)
		if err != nil {
			t.Fatalf("offset %d: second reopen: %v", n, err)
		}
		if got := doneCells(c2); !reflect.DeepEqual(got, restored) {
			t.Fatalf("offset %d: second reopen restored %v, first %v", n, got, restored)
		}
		if c2.Epoch() != c1.Epoch()+1 {
			t.Fatalf("offset %d: second reopen epoch %d, want %d", n, c2.Epoch(), c1.Epoch()+1)
		}
		for !c2.Done() {
			completeNext(t, c2, now)
		}
		if err := c2.CloseWAL(); err != nil {
			t.Fatalf("offset %d: close: %v", n, err)
		}
	}
}

// TestWALRotatesForeignFile pins the rotate discipline: a WAL from a
// different run (scale mismatch) is moved aside, not replayed and not
// destroyed.
func TestWALRotatesForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "coord.wal")
	now := time.Unix(1000, 0)

	c1 := walCoord(t, path)
	completeNext(t, c1, now)
	if err := c1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	other := testConfig()
	other.Scale = 4000
	c2, err := NewWALCoordinator(other, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Restored != 0 || st.Done != 0 {
		t.Fatalf("foreign WAL leaked state: %+v", st)
	}
	if c2.Epoch() != 1 {
		t.Fatalf("fresh epoch after rotate = %d, want 1", c2.Epoch())
	}
	if _, err := os.Stat(path + ".stale"); err != nil {
		t.Fatalf("rotated backup missing: %v", err)
	}
}

// TestWALGrantRevertedOnAppendFailure pins log-before-ack on the grant
// path: when the WAL append fails, Claim must not hand out the lease —
// and the state must be clean enough that a later (healthy) claim works.
func TestWALGrantRevertedOnAppendFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	now := time.Unix(1000, 0)
	c := walCoord(t, path)
	c.Kill()
	lease, done := c.Claim("w", now)
	if lease != nil || done {
		t.Fatalf("claim with dead WAL granted %+v done=%v", lease, done)
	}
	st := c.Stats()
	if st.Claims != 0 || st.Leased != 0 {
		t.Fatalf("reverted grant leaked into stats: %+v", st)
	}
	if st.WALErrors == 0 {
		t.Fatal("WAL failure not counted")
	}
	if !strings.Contains(ErrWAL.Error(), "wal") {
		t.Fatal("sanity")
	}
}
