package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"dora/internal/btree"
	"dora/internal/storage"
	"dora/internal/wal"
)

// Fuzzy checkpointing (ARIES-style, adapted to this engine's logical redo):
//
// A checkpoint is a consistent image of every table's catalog entry and the
// records visible at one log horizon, pinned with a regular MVCC snapshot so
// executors never stall while the image is written. Under the engine's
// commit latch the checkpoint latches, atomically: the WAL cut (every record
// appended before the latch sits strictly below it), the log's
// active-transaction set with each transaction's first LSN, and a snapshot
// pinned at cut-1. Write transactions append their COMMIT record and stamp
// their versions with its LSN inside the same latch (appendCommit), so the
// image holds exactly the transactions whose COMMIT sits below the cut; the
// log is flushed up to the cut before the image is written, so all of them
// are durable. Recovery loads the image and replays only the transactions
// that were active at the cut or began after it, minus those whose COMMIT
// sits below the cut even though their END landed after it
// (wal.LogImage.ApplyCheckpoint) — never double-applying work the image
// already contains.
//
// The image lands in ckpt-<cutLSN>.img using the WAL's checksummed
// length-framed layout, written to a .tmp file, fsynced, renamed, and followed
// by a directory fsync, so a crashed checkpoint leaves either the previous
// images or a complete new one — never a half-visible file. The newest two
// images are retained; the WAL is truncated (whole segments only) below the
// minimum replay horizon of the retained VERIFIED images, so even if the
// newest image later turns out corrupt, recovery falls back to the older one
// and still finds every log record it needs.
const (
	ckptMagic   = "DORACKP1"
	ckptVersion = 2
	ckptPrefix  = "ckpt-"
	ckptSuffix  = ".img"

	// ckptRetain is how many checkpoint images survive retention. Two, not
	// one: truncation stays behind both, so a newest image corrupted after
	// the fact still leaves a usable older image + tail.
	ckptRetain = 2

	// frame payload tags after the header frame.
	ckptTagTable   = 'T'
	ckptTagRecords = 'R'
	ckptTagTrailer = 'E'

	// ckptBatchBytes bounds one record frame's payload.
	ckptBatchBytes = 256 << 10
)

// ErrNoCheckpointDir is returned by Checkpoint on in-memory engines.
var ErrNoCheckpointDir = errors.New("engine: checkpointing requires a file-backed engine (Open)")

// CheckpointFaultHook is a crash-matrix fault-injection hook: it runs at the
// named points of a checkpoint run ("begin", "image-header", "image-written",
// "image-synced", "image-renamed", "record-logged", "retired", "pre-truncate",
// "mid-truncate", "truncated") and aborts the run there by returning an error,
// leaving on disk exactly what a crash at that point would leave.
type CheckpointFaultHook func(point string) error

// SetCheckpointFaultHook installs the fault hook (nil clears it). Tests only.
func (e *Engine) SetCheckpointFaultHook(fn CheckpointFaultHook) {
	e.ckptHookMu.Lock()
	e.ckptHook = fn
	e.ckptHookMu.Unlock()
}

func (e *Engine) ckptFault(point string) error {
	e.ckptHookMu.RLock()
	fn := e.ckptHook
	e.ckptHookMu.RUnlock()
	if fn == nil {
		return nil
	}
	return fn(point)
}

// CheckpointStats describes one completed checkpoint.
type CheckpointStats struct {
	// Path is the image file written.
	Path string
	// CutLSN is the WAL cut: recovery from this image replays only the log
	// tail at/above the replay horizon, filtered against the cut.
	CutLSN wal.LSN
	// LowLSN is the replay horizon: the oldest log record a recovery from
	// this image can need (the first LSN of the oldest transaction active at
	// the cut, or the cut itself when none was active).
	LowLSN wal.LSN
	// Tables and Records count what the image holds; Bytes is the file size.
	Tables  int
	Records int
	Bytes   int64
	// TailBase is the log's first retained LSN after truncation.
	TailBase wal.LSN
	// Elapsed is the wall time of the whole checkpoint run.
	Elapsed time.Duration
}

// LastCheckpoint returns the stats of the most recent successful checkpoint
// (zero value if none this process lifetime).
func (e *Engine) LastCheckpoint() CheckpointStats {
	e.lastCkptMu.Lock()
	defer e.lastCkptMu.Unlock()
	return e.lastCkpt
}

func checkpointFileName(cut wal.LSN) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, uint64(cut), ckptSuffix)
}

func parseCheckpointFileName(name string) (wal.LSN, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return wal.LSN(v), true
}

// ckptFileRef is one on-disk checkpoint image.
type ckptFileRef struct {
	path string
	cut  wal.LSN
}

// findCheckpointFiles lists the directory's checkpoint images newest-first.
func findCheckpointFiles(dir string) []ckptFileRef {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []ckptFileRef
	for _, en := range entries {
		if en.IsDir() {
			continue
		}
		if cut, ok := parseCheckpointFileName(en.Name()); ok {
			out = append(out, ckptFileRef{path: filepath.Join(dir, en.Name()), cut: cut})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].cut > out[j].cut })
	return out
}

// Checkpoint writes a fuzzy checkpoint image of the engine, logs a
// RecCheckpoint record, retires images beyond the retention window, and
// truncates the WAL below the retained images' minimum replay horizon. It
// runs concurrently with executors (the image is read through a snapshot
// pinned at the cut); whole runs are serialized against each other.
// In-memory engines return ErrNoCheckpointDir.
func (e *Engine) Checkpoint() (CheckpointStats, error) {
	var stats CheckpointStats
	if e.dir == "" {
		return stats, ErrNoCheckpointDir
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	start := time.Now()
	if err := e.ckptFault("begin"); err != nil {
		return stats, err
	}

	// Latch the cut under the commit latch (see the comment at the top of
	// the file). Pinning the snapshot inside the latch also keeps the pruner
	// from reclaiming history the image needs, however far executors race
	// ahead before the table scans below.
	e.commitMu.Lock()
	cut, low, active := e.log.CheckpointCut()
	snap := e.pinSnapshotLocked(cut - 1)
	e.commitMu.Unlock()
	defer snap.Release()

	e.lastCkptMu.Lock()
	idle := e.lastCkptEnd != 0 && cut == e.lastCkptEnd
	last := e.lastCkpt
	e.lastCkptMu.Unlock()
	if idle {
		// Nothing was logged since the previous checkpoint's own marker
		// record; a new image would be identical. Skip (keeps the background
		// loop cheap on an idle engine).
		return last, nil
	}

	// The image must hold only durable commits: force the log up to the cut.
	e.log.Flush(cut - 1)
	if err := e.commitDurable(cut - 1); err != nil {
		return stats, fmt.Errorf("engine: flushing log to checkpoint cut %d: %w", cut, err)
	}

	tables, nextTID := e.catalogSnapshot()
	nextTxn := e.nextTxn.Load()

	stats.CutLSN, stats.LowLSN = cut, low
	stats.Tables = len(tables)

	final := filepath.Join(e.dir, checkpointFileName(cut))
	tmp := final + ".tmp"
	written, records, err := e.writeCheckpointImage(tmp, tables, ckptHeader{
		cut: cut, low: low, nextTxn: nextTxn, nextTID: nextTID, active: active,
	})
	if err != nil {
		return stats, err
	}
	stats.Records, stats.Bytes = records, written
	if err := os.Rename(tmp, final); err != nil {
		return stats, fmt.Errorf("engine: publishing checkpoint image: %w", err)
	}
	if err := syncDirFS(e.dir); err != nil {
		return stats, fmt.Errorf("engine: syncing checkpoint dir: %w", err)
	}
	stats.Path = final
	if err := e.ckptFault("image-renamed"); err != nil {
		return stats, err
	}

	// The log record is a marker for tooling and analysis; the image header
	// is authoritative for recovery. Force it so the marker is durable
	// before anything behind the cut can disappear.
	meta := make([]byte, 16)
	binary.LittleEndian.PutUint64(meta[0:], uint64(cut))
	binary.LittleEndian.PutUint64(meta[8:], uint64(low))
	if _, err := e.log.Append(&wal.Record{
		Type: wal.RecCheckpoint, After: meta, ActiveTxns: active,
	}); err != nil {
		return stats, fmt.Errorf("engine: logging checkpoint record: %w", err)
	}
	e.log.FlushAll()
	// Captured here (not at the end of the run) so the idle check above stays
	// tight: anything logged after this point forces the next run to produce
	// a fresh image.
	ckptEnd := e.log.CurrentLSN()
	if err := e.ckptFault("record-logged"); err != nil {
		return stats, err
	}

	if err := e.retireAndTruncate(&stats); err != nil {
		return stats, err
	}

	stats.TailBase = e.log.TailBase()
	stats.Elapsed = time.Since(start)
	e.lastCkptMu.Lock()
	e.lastCkpt = stats
	e.lastCkptEnd = ckptEnd
	e.lastCkptMu.Unlock()
	return stats, nil
}

// retireAndTruncate removes images beyond the retention window, verifies the
// retained ones by fully re-reading them, and truncates the WAL below the
// verified images' minimum replay horizon. Truncation never runs ahead of a
// verified checkpoint: an image that fails verification contributes nothing
// to the horizon, and if the newest image itself fails, nothing is truncated.
func (e *Engine) retireAndTruncate(stats *CheckpointStats) error {
	files := findCheckpointFiles(e.dir)
	removedOld := false
	for i, ref := range files {
		if i >= ckptRetain {
			os.Remove(ref.path)
			removedOld = true
		}
	}
	if removedOld {
		if err := syncDirFS(e.dir); err != nil {
			return err
		}
		files = files[:ckptRetain]
	}
	if err := e.ckptFault("retired"); err != nil {
		return err
	}

	safeLow := wal.LSN(0)
	for i, ref := range files {
		img, err := loadCheckpointFile(ref.path)
		if err != nil {
			if i == 0 {
				// The image this very run wrote does not verify: something
				// is deeply wrong with the disk; do not truncate anything.
				return fmt.Errorf("engine: checkpoint image %s fails verification: %w", ref.path, err)
			}
			// An older retained image that no longer verifies is useless as
			// a fallback; retire it rather than letting it pin the log.
			os.Remove(ref.path)
			continue
		}
		if safeLow == 0 || img.low < safeLow {
			safeLow = img.low
		}
	}
	if safeLow == 0 {
		return nil
	}
	if err := e.ckptFault("pre-truncate"); err != nil {
		return err
	}
	e.log.SetTruncateHook(func(removed int) error { return e.ckptFault("mid-truncate") })
	err := e.log.TruncateBefore(safeLow)
	e.log.SetTruncateHook(nil)
	if err != nil {
		return fmt.Errorf("engine: truncating log behind checkpoint: %w", err)
	}
	return e.ckptFault("truncated")
}

// catalogSnapshot returns the tables in id order plus the table-id watermark,
// atomically with respect to CreateTable.
func (e *Engine) catalogSnapshot() ([]*Table, uint32) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*Table, 0, len(e.tablesID))
	for id := TableID(1); id <= TableID(e.nextTID); id++ {
		if t, ok := e.tablesID[id]; ok {
			out = append(out, t)
		}
	}
	return out, e.nextTID
}

// ckptHeader is the decoded header frame of a checkpoint image.
type ckptHeader struct {
	cut     wal.LSN
	low     wal.LSN
	nextTxn uint64
	nextTID uint32
	active  map[wal.TxnID]wal.LSN
}

// writeCheckpointImage writes the framed image to path (a .tmp file) and
// fsyncs it, returning the byte and record counts. Fault points: the header
// frame and the full frame set are flushed before their hooks run, so an
// abort there leaves exactly the bytes a crash would.
func (e *Engine) writeCheckpointImage(path string, tables []*Table, hdr ckptHeader) (int64, int, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("engine: creating checkpoint image: %w", err)
	}
	defer f.Close()
	var written int64
	emit := func(payload []byte) error {
		frame := wal.AppendFrame(nil, payload)
		n, err := f.Write(frame)
		written += int64(n)
		return err
	}

	// Header frame.
	head := make([]byte, 0, 64+16*len(hdr.active))
	head = append(head, ckptMagic...)
	head = appendU32(head, ckptVersion)
	head = appendU64(head, uint64(hdr.cut))
	head = appendU64(head, uint64(hdr.low))
	head = appendU64(head, hdr.nextTxn)
	head = appendU32(head, hdr.nextTID)
	head = appendU32(head, uint32(len(tables)))
	head = appendU32(head, uint32(len(hdr.active)))
	for txn, first := range hdr.active {
		head = appendU64(head, uint64(txn))
		head = appendU64(head, uint64(first))
	}
	if err := emit(head); err != nil {
		return written, 0, fmt.Errorf("engine: writing checkpoint header: %w", err)
	}
	if err := e.ckptFault("image-header"); err != nil {
		return written, 0, err
	}

	// Table frames: the catalog entry, then the records visible at the
	// image's horizon (cut-1), batched into bounded frames.
	total := 0
	for _, tbl := range tables {
		def, err := encodeTableDef(tbl.def)
		if err != nil {
			return written, total, fmt.Errorf("engine: encoding schema of %q: %w", tbl.Name(), err)
		}
		tf := make([]byte, 0, 9+len(def))
		tf = append(tf, ckptTagTable)
		tf = appendU32(tf, uint32(tbl.id))
		tf = appendU32(tf, uint32(len(def)))
		tf = append(tf, def...)
		if err := emit(tf); err != nil {
			return written, total, fmt.Errorf("engine: writing checkpoint table frame: %w", err)
		}
		n, err := e.writeTableRecords(emit, tbl, hdr.cut-1)
		if err != nil {
			return written, total, err
		}
		total += n
	}

	// Trailer frame: completeness marker. A torn image misses it (or fails a
	// frame checksum earlier) and is rejected by loadCheckpointFile.
	trailer := make([]byte, 0, 13)
	trailer = append(trailer, ckptTagTrailer)
	trailer = appendU64(trailer, uint64(total))
	trailer = appendU32(trailer, uint32(len(tables)))
	if err := emit(trailer); err != nil {
		return written, total, fmt.Errorf("engine: writing checkpoint trailer: %w", err)
	}
	if err := e.ckptFault("image-written"); err != nil {
		return written, total, err
	}
	if err := f.Sync(); err != nil {
		return written, total, fmt.Errorf("engine: syncing checkpoint image: %w", err)
	}
	if err := e.ckptFault("image-synced"); err != nil {
		return written, total, err
	}
	return written, total, nil
}

// writeTableRecords scans the table at horizon h through its primary
// index (the snapshot pin keeps the needed version history alive) and emits
// the visible records as bounded batch frames of (RID, encoded tuple) pairs.
// The RID recorded is the live heap RID the WAL's change records reference,
// which is what lets recovery seed its RID remap table from the image.
func (e *Engine) writeTableRecords(emit func([]byte) error, tbl *Table, h wal.LSN) (int, error) {
	count := 0
	batch := make([]byte, 0, ckptBatchBytes+4096)
	nbatch := 0
	startBatch := func() {
		batch = batch[:0]
		batch = append(batch, ckptTagRecords)
		batch = appendU32(batch, uint32(tbl.id))
		batch = appendU32(batch, 0) // count, patched on flush
		nbatch = 0
	}
	flush := func() error {
		if nbatch == 0 {
			return nil
		}
		binary.LittleEndian.PutUint32(batch[5:9], uint32(nbatch))
		return emit(batch)
	}
	startBatch()

	var innerErr error
	var lastKey storage.Key
	tbl.primary.ScanPrefixAll(nil, func(en btree.Entry) bool {
		if lastKey != nil && bytes.Equal(en.Key, lastKey) {
			return true
		}
		tu, rerr := tbl.resolveAt(en.RID, en.Key, h)
		if rerr != nil {
			if errors.Is(rerr, ErrNotFound) {
				return true
			}
			innerErr = rerr
			return false
		}
		lastKey = append(lastKey[:0], en.Key...)
		data := tu.Encode(nil)
		batch = appendU32(batch, uint32(en.RID.Page))
		batch = append(batch, byte(en.RID.Slot), byte(en.RID.Slot>>8))
		batch = appendU32(batch, uint32(len(data)))
		batch = append(batch, data...)
		nbatch++
		count++
		if len(batch) >= ckptBatchBytes {
			// File IO inside the scan callback stalls concurrent index
			// writers for at most one bounded batch; checkpointing trades
			// that for not buffering whole tables in memory.
			if innerErr = flush(); innerErr != nil {
				return false
			}
			startBatch()
		}
		return true
	})
	if innerErr != nil {
		return count, fmt.Errorf("engine: scanning %q for checkpoint: %w", tbl.Name(), innerErr)
	}
	if err := flush(); err != nil {
		return count, fmt.Errorf("engine: writing checkpoint records of %q: %w", tbl.Name(), err)
	}
	return count, nil
}

// ckptTableImage is one table decoded from a checkpoint image.
type ckptTableImage struct {
	id   uint32
	def  TableDef
	rids []storage.RID
	recs [][]byte
}

// ckptImage is a fully decoded, verified checkpoint image.
type ckptImage struct {
	path string
	ckptHeader
	tables []ckptTableImage
}

// loadCheckpointFile reads and fully verifies a checkpoint image: every frame
// checksum, the header magic/version, per-frame structure, and the trailer's
// record and table counts. Any failure (torn tail, flipped byte, missing
// trailer) rejects the whole image so recovery falls back to an older one.
func loadCheckpointFile(path string) (*ckptImage, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, n, ok := wal.NextFrame(data)
	if !ok {
		return nil, fmt.Errorf("engine: checkpoint %s: bad header frame", path)
	}
	data = data[n:]
	hdr, ntables, err := parseCkptHeader(payload)
	if err != nil {
		return nil, fmt.Errorf("engine: checkpoint %s: %w", path, err)
	}
	img := &ckptImage{path: path, ckptHeader: hdr}
	byID := make(map[uint32]*ckptTableImage)
	total := 0
	sealed := false
	for len(data) > 0 && !sealed {
		payload, n, ok = wal.NextFrame(data)
		if !ok {
			return nil, fmt.Errorf("engine: checkpoint %s: torn or corrupt frame", path)
		}
		data = data[n:]
		if len(payload) == 0 {
			return nil, fmt.Errorf("engine: checkpoint %s: empty frame", path)
		}
		switch payload[0] {
		case ckptTagTable:
			if len(payload) < 9 {
				return nil, fmt.Errorf("engine: checkpoint %s: short table frame", path)
			}
			id := binary.LittleEndian.Uint32(payload[1:5])
			dlen := int(binary.LittleEndian.Uint32(payload[5:9]))
			if len(payload) != 9+dlen {
				return nil, fmt.Errorf("engine: checkpoint %s: table frame length mismatch", path)
			}
			def, err := decodeTableDef(payload[9:])
			if err != nil {
				return nil, fmt.Errorf("engine: checkpoint %s: corrupt table def: %w", path, err)
			}
			if _, dup := byID[id]; dup {
				return nil, fmt.Errorf("engine: checkpoint %s: duplicate table %d", path, id)
			}
			ti := &ckptTableImage{id: id, def: def}
			byID[id] = ti
			img.tables = append(img.tables, ckptTableImage{})
			// Keep insertion order; fill via pointer below.
			img.tables[len(img.tables)-1] = *ti
		case ckptTagRecords:
			if len(payload) < 9 {
				return nil, fmt.Errorf("engine: checkpoint %s: short record frame", path)
			}
			id := binary.LittleEndian.Uint32(payload[1:5])
			count := int(binary.LittleEndian.Uint32(payload[5:9]))
			idx := -1
			for i := range img.tables {
				if img.tables[i].id == id {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("engine: checkpoint %s: records for unknown table %d", path, id)
			}
			body := payload[9:]
			for i := 0; i < count; i++ {
				if len(body) < 10 {
					return nil, fmt.Errorf("engine: checkpoint %s: short record entry", path)
				}
				rid := storage.RID{
					Page: storage.PageID(binary.LittleEndian.Uint32(body[0:4])),
					Slot: binary.LittleEndian.Uint16(body[4:6]),
				}
				rlen := int(binary.LittleEndian.Uint32(body[6:10]))
				body = body[10:]
				if len(body) < rlen {
					return nil, fmt.Errorf("engine: checkpoint %s: truncated record entry", path)
				}
				img.tables[idx].rids = append(img.tables[idx].rids, rid)
				img.tables[idx].recs = append(img.tables[idx].recs, append([]byte(nil), body[:rlen]...))
				body = body[rlen:]
				total++
			}
			if len(body) != 0 {
				return nil, fmt.Errorf("engine: checkpoint %s: record frame has trailing bytes", path)
			}
		case ckptTagTrailer:
			if len(payload) != 13 {
				return nil, fmt.Errorf("engine: checkpoint %s: bad trailer frame", path)
			}
			wantRecords := int(binary.LittleEndian.Uint64(payload[1:9]))
			wantTables := int(binary.LittleEndian.Uint32(payload[9:13]))
			if wantRecords != total || wantTables != len(img.tables) || wantTables != ntables {
				return nil, fmt.Errorf("engine: checkpoint %s: trailer counts mismatch (records %d/%d, tables %d/%d/%d)",
					path, total, wantRecords, len(img.tables), wantTables, ntables)
			}
			sealed = true
		default:
			return nil, fmt.Errorf("engine: checkpoint %s: unknown frame tag %q", path, payload[0])
		}
	}
	if !sealed {
		return nil, fmt.Errorf("engine: checkpoint %s: missing trailer (torn image)", path)
	}
	return img, nil
}

// parseCkptHeader decodes the header frame payload.
func parseCkptHeader(p []byte) (ckptHeader, int, error) {
	var h ckptHeader
	if len(p) < len(ckptMagic)+4 || string(p[:len(ckptMagic)]) != ckptMagic {
		return h, 0, errors.New("bad magic")
	}
	p = p[len(ckptMagic):]
	if v := binary.LittleEndian.Uint32(p); v != ckptVersion {
		return h, 0, fmt.Errorf("unsupported version %d", v)
	}
	p = p[4:]
	if len(p) < 8*3+4*3 {
		return h, 0, errors.New("short header")
	}
	h.cut = wal.LSN(binary.LittleEndian.Uint64(p[0:8]))
	h.low = wal.LSN(binary.LittleEndian.Uint64(p[8:16]))
	h.nextTxn = binary.LittleEndian.Uint64(p[16:24])
	h.nextTID = binary.LittleEndian.Uint32(p[24:28])
	ntables := int(binary.LittleEndian.Uint32(p[28:32]))
	nactive := int(binary.LittleEndian.Uint32(p[32:36]))
	p = p[36:]
	if len(p) != nactive*16 {
		return h, 0, errors.New("active-transaction table length mismatch")
	}
	h.active = make(map[wal.TxnID]wal.LSN, nactive)
	for i := 0; i < nactive; i++ {
		txn := wal.TxnID(binary.LittleEndian.Uint64(p[0:8]))
		h.active[txn] = wal.LSN(binary.LittleEndian.Uint64(p[8:16]))
		p = p[16:]
	}
	return h, ntables, nil
}

// loadUsableCheckpoint returns the newest checkpoint image that verifies fully
// AND whose replay horizon the log tail still covers. Invalid or uncovered
// images are skipped (fallback to older), never deleted here — recovery only
// reads.
func loadUsableCheckpoint(dir string, base wal.LSN) *ckptImage {
	for _, ref := range findCheckpointFiles(dir) {
		img, err := loadCheckpointFile(ref.path)
		if err != nil {
			continue
		}
		if img.low < base {
			// The tail no longer holds records this image needs; only
			// possible for images older than the ones truncation was
			// verified against.
			continue
		}
		return img
	}
	return nil
}

// startCheckpointer runs Checkpoint on the given cadence until Close.
func (e *Engine) startCheckpointer(every time.Duration) {
	if every <= 0 || e.dir == "" {
		return
	}
	e.ckptStop = make(chan struct{})
	e.ckptDone = make(chan struct{})
	go func() {
		defer close(e.ckptDone)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-e.ckptStop:
				return
			case <-t.C:
				// Background checkpoints are best-effort: a failure leaves
				// the previous images and an untruncated log, both safe.
				e.Checkpoint() //nolint:errcheck
			}
		}
	}()
}

func (e *Engine) stopCheckpointer() {
	if e.ckptStop == nil {
		return
	}
	e.ckptOnce.Do(func() {
		close(e.ckptStop)
		<-e.ckptDone
	})
}

// syncDirFS fsyncs a directory so renames and removals in it are durable.
func syncDirFS(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}
