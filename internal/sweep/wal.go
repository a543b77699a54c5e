package sweep

import (
	"repro/internal/experiments"
	"repro/internal/jsonlog"
)

// The coordinator write-ahead log makes the lease service crash-safe:
// every state transition a worker depends on — lease grant, record
// append, cell completion — is appended to a JSONL file *before* it is
// acknowledged, so a SIGKILLed coordinator restarted against the same
// -out directory rebuilds the completion set, the accepted-record set,
// the per-cell delivery counts, and the lease-ID high-water mark, and
// re-leases only what is genuinely unfinished.
//
// The file format and its crash rules are internal/jsonlog's, shared
// with the run journal: each entry is one JSON line written with a
// single Write, replay stops at the first line that is unterminated or
// does not decode, and the tail past it is truncated before new
// appends. A crash therefore tears at most the final entry; everything
// acknowledged before it survives.
//
// Each coordinator incarnation opens the WAL by appending an "epoch"
// entry whose number is one past the largest epoch already present.
// Leases are incarnation-scoped: grants replayed from an older epoch
// restore delivery counts and the ID high-water mark but never a live
// lease — the workers holding them learn of the restart through
// ErrStaleEpoch (HTTP 410) and re-claim cleanly.

// walVersion gates the WAL format; a bump rotates older files aside.
const walVersion = 1

// walEntry is one line of the coordinator WAL. Kind selects the fields.
type walEntry struct {
	Kind string `json:"kind"` // "epoch" | "grant" | "expire" | "record" | "complete"

	// Epoch-entry fields: the format/run identity plus the incarnation
	// number this entry opens.
	Version int    `json:"version,omitempty"`
	Scale   int    `json:"scale,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`

	Lease    uint64                     `json:"lease,omitempty"`
	Cell     *Cell                      `json:"cell,omitempty"`
	Delivery int                        `json:"delivery,omitempty"`
	Record   *experiments.JournalRecord `json:"record,omitempty"`
}

// walState is everything a restarted coordinator rebuilds from replay.
type walState struct {
	epoch      uint64                      // largest epoch seen (0 = fresh file)
	records    []experiments.JournalRecord // accepted records, in append order
	completed  []Cell                      // cells with a completion entry
	deliveries map[Cell]int                // grants per cell, across all epochs
	nextID     uint64                      // lease-ID high-water mark

	grants map[uint64]Cell // live leases of the newest epoch replayed so far
	done   map[Cell]bool   // completed, as a set
}

func newWALState() walState {
	return walState{deliveries: make(map[Cell]int), grants: make(map[uint64]Cell), done: make(map[Cell]bool)}
}

// walFirst accepts the epoch entry that opens a WAL of this format
// version and scale; a WAL whose first entry it rejects belongs to a
// different run and is rotated aside.
func walFirst(scale int) func(walEntry) bool {
	return func(e walEntry) bool { return e.Kind == "epoch" && e.Version == walVersion && e.Scale == scale }
}

// apply folds one replayed entry into the state. Out-of-protocol but
// parsable entries (unknown kinds, grants without cells) are skipped
// rather than fatal — the WAL is an append path for exactly one writer,
// so damage beyond a torn tail means the operator copied files around,
// and salvaging the parsable prefix beats refusing to start.
func (st *walState) apply(e walEntry) {
	switch e.Kind {
	case "epoch":
		if e.Epoch > st.epoch {
			st.epoch = e.Epoch
		}
		// A new epoch orphans every live lease of the previous one.
		clear(st.grants)
	case "grant":
		if e.Cell != nil {
			st.grants[e.Lease] = *e.Cell
			st.deliveries[*e.Cell]++
			st.nextID = max(st.nextID, e.Lease)
		}
	case "expire":
		delete(st.grants, e.Lease)
	case "record":
		if e.Record != nil {
			st.records = append(st.records, *e.Record)
		}
	case "complete":
		cell, ok := st.grants[e.Lease]
		delete(st.grants, e.Lease)
		if !ok && e.Cell != nil {
			cell, ok = *e.Cell, true
		}
		if ok && !st.done[cell] {
			st.done[cell] = true
			st.completed = append(st.completed, cell)
		}
	}
}

// openWAL opens (or creates) the coordinator WAL at path through
// jsonlog, which replays its valid prefix into the state, truncates any
// torn tail and rotates a WAL from a different run to a "stale" backup.
// It then appends the epoch entry for this incarnation (replayed
// epoch + 1).
func openWAL(path string, scale int) (*jsonlog.Log, walState, error) {
	st := newWALState()
	w, _, err := jsonlog.Open(path, walFirst(scale), st.apply)
	if err != nil {
		return nil, walState{}, err
	}
	st.epoch++
	if _, err := w.Append(walEntry{Kind: "epoch", Version: walVersion, Scale: scale, Epoch: st.epoch}); err != nil {
		w.Close()
		return nil, walState{}, err
	}
	return w, st, nil
}
