package engine

import (
	"fmt"

	"dora/internal/storage"
	"dora/internal/wal"
)

// recoveryApplier implements wal.Applier over the engine's tables. Redo is
// logical: records are re-inserted into freshly formatted heap files, and a
// RID remap table translates the RIDs recorded in the log into the RIDs the
// replayed inserts receive, so that subsequent updates and deletes find their
// records. After the log passes finish, every index is rebuilt from the heap.
type recoveryApplier struct {
	e     *Engine
	remap map[uint64]storage.RID // logged RID key -> replayed RID
}

func (a *recoveryApplier) resolve(tableID uint32, logged storage.RID) (storage.RID, bool) {
	key := uint64(tableID)<<48 | logged.Key()
	rid, ok := a.remap[key]
	return rid, ok
}

func (a *recoveryApplier) bind(tableID uint32, logged, actual storage.RID) {
	key := uint64(tableID)<<48 | logged.Key()
	a.remap[key] = actual
}

func (a *recoveryApplier) Redo(r *wal.Record) error {
	tbl := a.e.tableByID(TableID(r.TableID))
	if tbl == nil {
		return fmt.Errorf("engine: redo references unknown table %d", r.TableID)
	}
	switch r.Type {
	case wal.RecInsert:
		rid, _, err := tbl.heap.insert(r.After)
		if err != nil {
			return err
		}
		a.bind(r.TableID, r.RID, rid)
		return nil
	case wal.RecUpdate:
		rid, ok := a.resolve(r.TableID, r.RID)
		if !ok {
			return fmt.Errorf("engine: redo update of unknown record %s", r.RID)
		}
		return tbl.heap.update(rid, r.After)
	case wal.RecDelete:
		rid, ok := a.resolve(r.TableID, r.RID)
		if !ok {
			return fmt.Errorf("engine: redo delete of unknown record %s", r.RID)
		}
		return tbl.heap.delete(rid)
	case wal.RecCLR:
		rid, ok := a.resolve(r.TableID, r.RID)
		if r.After == nil {
			// Compensation of an insert: remove the record.
			if ok {
				return tbl.heap.delete(rid)
			}
			return nil
		}
		if ok {
			// Compensation of an update or delete: restore the before image.
			if err := tbl.heap.update(rid, r.After); err == ErrNotFound {
				return tbl.heap.insertAt(rid, r.After)
			} else if err != nil {
				return err
			}
			return nil
		}
		newRID, _, err := tbl.heap.insert(r.After)
		if err != nil {
			return err
		}
		a.bind(r.TableID, r.RID, newRID)
		return nil
	default:
		return nil
	}
}

func (a *recoveryApplier) Undo(r *wal.Record) error {
	tbl := a.e.tableByID(TableID(r.TableID))
	if tbl == nil {
		return fmt.Errorf("engine: undo references unknown table %d", r.TableID)
	}
	rid, ok := a.resolve(r.TableID, r.RID)
	switch r.Type {
	case wal.RecInsert:
		if !ok {
			return nil
		}
		return tbl.heap.delete(rid)
	case wal.RecDelete:
		if ok {
			if err := tbl.heap.insertAt(rid, r.Before); err == nil {
				return nil
			}
		}
		newRID, _, err := tbl.heap.insert(r.Before)
		if err != nil {
			return err
		}
		a.bind(r.TableID, r.RID, newRID)
		return nil
	case wal.RecUpdate:
		if !ok {
			return fmt.Errorf("engine: undo update of unknown record %s", r.RID)
		}
		return tbl.heap.update(rid, r.Before)
	default:
		return nil
	}
}

// replayImage runs the redo/undo passes of a scanned log over this (freshly
// created or freshly opened) engine and rebuilds every index from the
// recovered heaps. It is the shared tail of the two recovery entry points:
// Recover (in-process crash, tables re-created by the caller) and Open
// (process restart, tables re-created from the log's schema records).
// The seed parameter pre-populates the RID remap table: when recovery starts
// from a checkpoint image, the image's records already sit in the heaps at
// fresh RIDs, and the log tail's change records reference the pre-crash RIDs —
// the seed maps one to the other. Full replays pass nil.
func (e *Engine) replayImage(log *wal.Manager, img *wal.LogImage, seed map[uint64]storage.RID) (wal.RecoveryStats, error) {
	// Recover replays into an engine whose background pruner is already
	// running (New starts it); hold it off while the heaps are rewritten and
	// rebuildIndexes resets each table's version store.
	e.prunerMu.Lock()
	defer e.prunerMu.Unlock()
	if seed == nil {
		seed = make(map[uint64]storage.RID)
	}
	applier := &recoveryApplier{e: e, remap: seed}
	stats, err := wal.Replay(log, img, applier)
	if err != nil {
		return stats, err
	}
	for _, tbl := range e.Tables() {
		if err := tbl.rebuildIndexes(); err != nil {
			return stats, fmt.Errorf("engine: rebuilding indexes of %q: %w", tbl.Name(), err)
		}
	}
	return stats, nil
}

// Recover runs restart recovery from the given log over a freshly created
// engine with the same table definitions: committed work is replayed,
// in-flight transactions are rolled back, and all indexes are rebuilt. It
// returns the wal recovery statistics.
//
// Typical use after a simulated crash:
//
//	fresh := engine.New(cfg)
//	// re-create the same tables on fresh ...
//	stats, err := fresh.Recover(crashed.Log())
func (e *Engine) Recover(log *wal.Manager) (wal.RecoveryStats, error) {
	img, err := log.Scan()
	if err != nil {
		return wal.RecoveryStats{}, err
	}
	return e.replayImage(log, img, nil)
}
