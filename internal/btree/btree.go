// Package btree implements the B+Tree indexes of the storage engine.
//
// Primary indexes map unique keys to RIDs. Secondary indexes may hold
// duplicate keys and, following Section 4.2.2 of the paper, every leaf entry
// carries the RID *and* the routing fields of the record so that a DORA
// secondary action can determine which executor owns the heap record, plus a
// 'deleted' flag so that uncommitted deletes remain visible to concurrent
// probes until the deleting transaction commits and clears them. Flagged
// entries are removed only by their owner (rollback or the engine's version
// pruner, once no snapshot can still need them) — never opportunistically at
// leaf splits, because a flagged entry is the only path by which an
// horizon-pinned snapshot reaches the old version chain of a deleted record.
//
// The tree keeps all nodes in memory (the paper's evaluation stores the whole
// database on an in-memory file system) and is protected by a single
// reader-writer latch; index latching is not the contention the paper studies,
// so the simpler scheme keeps the focus on the lock manager.
package btree

import (
	"bytes"
	"errors"
	"fmt"

	"dora/internal/latch"
	"dora/internal/storage"
)

// degree is the maximum number of entries in a leaf and keys in a branch.
const degree = 64

// ErrDuplicateKey is returned when inserting an existing key into a unique
// index.
var ErrDuplicateKey = errors.New("btree: duplicate key in unique index")

// Entry is one leaf entry of an index.
type Entry struct {
	// Key is the index key (order-preserving encoded).
	Key storage.Key
	// RID is the heap record the entry points at.
	RID storage.RID
	// Routing holds the routing-field key of the record, stored in
	// secondary index leaves so DORA can route the heap access (§4.2.2).
	Routing storage.Key
	// Deleted marks an entry whose record was deleted by a transaction that
	// has not yet committed (or that committed and will clear the entry
	// lazily). Probes skip deleted entries.
	Deleted bool
}

type node struct {
	leaf bool

	// Branch nodes: keys[i] is the smallest key in children[i+1].
	keys     []storage.Key
	children []*node

	// Leaf nodes.
	entries []Entry
	next    *node
}

// Tree is a B+Tree index.
type Tree struct {
	name   string
	unique bool

	latch latch.RWLatch
	root  *node
	size  int
}

// New creates an index. Unique trees reject duplicate keys.
func New(name string, unique bool) *Tree {
	return &Tree{name: name, unique: unique, root: &node{leaf: true}}
}

// Name returns the index name.
func (t *Tree) Name() string { return t.name }

// Unique reports whether the index enforces key uniqueness.
func (t *Tree) Unique() bool { return t.unique }

// Len returns the number of live (non-deleted) entries.
func (t *Tree) Len() int {
	t.latch.RLock()
	defer t.latch.RUnlock()
	return t.size
}

// Insert adds an entry. For unique trees it returns ErrDuplicateKey if a live
// entry with the same key exists; flagged entries with the same key do not
// block the insert but are kept alongside the new entry (snapshots still
// resolve the old record through them) until the pruner removes them with
// DeleteFlagged.
func (t *Tree) Insert(e Entry) error {
	t.latch.Lock()
	defer t.latch.Unlock()
	if t.unique {
		leaf := t.findLeaf(e.Key)
	scan:
		for leaf != nil {
			for i := range leaf.entries {
				cmp := bytes.Compare(leaf.entries[i].Key, e.Key)
				if cmp > 0 {
					break scan
				}
				if cmp == 0 && !leaf.entries[i].Deleted {
					return ErrDuplicateKey
				}
			}
			leaf = leaf.next
		}
	}
	t.insert(e)
	t.size++
	return nil
}

// SearchUnique returns the live entry with the given key.
func (t *Tree) SearchUnique(key storage.Key) (Entry, bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	leaf := t.findLeaf(key)
	for leaf != nil {
		for _, e := range leaf.entries {
			cmp := bytes.Compare(e.Key, key)
			if cmp > 0 {
				return Entry{}, false
			}
			if cmp == 0 && !e.Deleted {
				return e, true
			}
		}
		leaf = leaf.next
	}
	return Entry{}, false
}

// Search returns all live entries with exactly the given key (secondary
// indexes may hold duplicates).
func (t *Tree) Search(key storage.Key) []Entry {
	var out []Entry
	t.ScanPrefix(key, func(e Entry) bool {
		if bytes.Equal(e.Key, key) {
			out = append(out, e)
			return true
		}
		return false
	})
	// ScanPrefix includes keys that merely start with the prefix; filter to
	// exact matches only (done above) — out already holds them.
	return out
}

// ScanPrefix visits, in key order, every live entry whose key starts with the
// given prefix, invoking fn until it returns false. A nil or empty prefix
// scans the whole tree. Prefix scans are how DORA resolves actions whose
// identifier covers only a leading subset of the routing fields.
func (t *Tree) ScanPrefix(prefix storage.Key, fn func(Entry) bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	leaf := t.findLeaf(prefix)
	for leaf != nil {
		for _, e := range leaf.entries {
			if e.Deleted {
				continue
			}
			if len(prefix) > 0 {
				if bytes.Compare(e.Key, prefix) < 0 {
					continue
				}
				if !e.Key.HasPrefix(prefix) {
					return
				}
			}
			if !fn(e) {
				return
			}
		}
		leaf = leaf.next
	}
}

// scanChunk bounds how many entries ScanPrefixAll visits per read-latch hold.
// The latch is a spin latch, so a scan pinning it across a whole table would
// stall every writer for the duration of the pass — the snapshot path exists
// precisely to avoid that. Between chunks the latch is released and re-taken,
// letting the writer-preferring latch drain queued writers; the scan resumes
// after the last key it emitted.
const scanChunk = 128

// ScanPrefixAll visits, in key order, every entry — flagged ones included —
// whose key starts with the given prefix, invoking fn until it returns false.
// A nil or empty prefix scans the whole tree. Snapshot reads use it: a flagged
// entry is the only index path to a deleted record's version chain, and the
// chain (not the flag) decides visibility at the snapshot's horizon.
//
// fn runs with the tree's read latch held, which is what guarantees that any
// flagged entry fn observes still has its version chain installed (the pruner
// removes entries under the write latch before freeing chains). The latch is
// NOT held across the whole scan: every scanChunk entries it is dropped and
// re-acquired, and the scan re-descends to just after the last visited key. A
// chunk only ever breaks between distinct keys — duplicate entries of one key
// (a flagged relic plus a live reinsertion) are always visited under a single
// hold, so a caller deduplicating by key never loses the entry that resolves.
// Entries inserted or pruned between chunks are harmless to horizon-pinned
// readers: a new entry's versions carry commit LSNs later than any
// already-pinned snapshot, and the pruner only unlinks entries whose delete
// is already visible to every registered snapshot.
func (t *Tree) ScanPrefixAll(prefix storage.Key, fn func(Entry) bool) {
	var last storage.Key // last key fully emitted; nil until the first entry
	for {
		t.latch.RLock()
		start := prefix
		if last != nil {
			start = last
		}
		n := 0
		again := false
		leaf := t.findLeaf(start)
	chunk:
		for leaf != nil {
			for _, e := range leaf.entries {
				if last != nil && bytes.Compare(e.Key, last) <= 0 {
					continue
				}
				if len(prefix) > 0 {
					if bytes.Compare(e.Key, prefix) < 0 {
						continue
					}
					if !e.Key.HasPrefix(prefix) {
						t.latch.RUnlock()
						return
					}
				}
				if n >= scanChunk && !bytes.Equal(e.Key, last) {
					again = true
					break chunk
				}
				if !fn(e) {
					t.latch.RUnlock()
					return
				}
				last = append(last[:0], e.Key...)
				n++
			}
			leaf = leaf.next
		}
		t.latch.RUnlock()
		if !again {
			return
		}
	}
}

// SearchEach visits every entry with exactly the given key — flagged ones
// included — invoking fn until it returns false. Like ScanPrefixAll, fn runs
// under the read latch; snapshot point probes use it because a key may carry
// both a flagged entry (old record) and a live one (reinserted record) and
// only the version chains can tell which is visible at a given horizon.
func (t *Tree) SearchEach(key storage.Key, fn func(Entry) bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	leaf := t.findLeaf(key)
	for leaf != nil {
		for _, e := range leaf.entries {
			cmp := bytes.Compare(e.Key, key)
			if cmp > 0 {
				return
			}
			if cmp == 0 && !fn(e) {
				return
			}
		}
		leaf = leaf.next
	}
}

// ScanRange visits, in key order, every live entry with lo <= key < hi.
// A nil hi scans to the end of the index.
func (t *Tree) ScanRange(lo, hi storage.Key, fn func(Entry) bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	leaf := t.findLeaf(lo)
	for leaf != nil {
		for _, e := range leaf.entries {
			if e.Deleted {
				continue
			}
			if len(lo) > 0 && bytes.Compare(e.Key, lo) < 0 {
				continue
			}
			if hi != nil && bytes.Compare(e.Key, hi) >= 0 {
				return
			}
			if !fn(e) {
				return
			}
		}
		leaf = leaf.next
	}
}

// ScanAll visits every live entry in key order.
func (t *Tree) ScanAll(fn func(Entry) bool) {
	t.ScanRange(nil, nil, fn)
}

// Delete physically removes the entry with the given key and RID. It reports
// whether an entry was removed. When the key holds both a live and a flagged
// entry with the same RID (heap slot reuse while a flagged relic awaits the
// pruner), the live entry is removed — Delete's callers (rollback, index
// replacement) always target the current record, never the relic.
func (t *Tree) Delete(key storage.Key, rid storage.RID) bool {
	t.latch.Lock()
	defer t.latch.Unlock()
	var flaggedLeaf *node
	flaggedIdx := -1
	leaf := t.findLeaf(key)
scan:
	for leaf != nil {
		for i := range leaf.entries {
			e := &leaf.entries[i]
			cmp := bytes.Compare(e.Key, key)
			if cmp > 0 {
				break scan
			}
			if cmp == 0 && e.RID == rid {
				if !e.Deleted {
					t.size--
					leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
					return true
				}
				if flaggedIdx < 0 {
					flaggedLeaf, flaggedIdx = leaf, i
				}
			}
		}
		leaf = leaf.next
	}
	if flaggedIdx >= 0 {
		flaggedLeaf.entries = append(flaggedLeaf.entries[:flaggedIdx], flaggedLeaf.entries[flaggedIdx+1:]...)
		return true
	}
	return false
}

// DeleteFlagged physically removes the entry with the given key and RID only
// if its deleted flag is set, reporting whether an entry was removed. The
// pruner uses it for deferred delete cleanup: after a heap slot is reused the
// key may map to both a flagged entry (old record) and a live entry
// (reinserted record) with the same RID, and a plain Delete could remove the
// live one.
func (t *Tree) DeleteFlagged(key storage.Key, rid storage.RID) bool {
	t.latch.Lock()
	defer t.latch.Unlock()
	leaf := t.findLeaf(key)
	for leaf != nil {
		for i := range leaf.entries {
			e := &leaf.entries[i]
			cmp := bytes.Compare(e.Key, key)
			if cmp > 0 {
				return false
			}
			if cmp == 0 && e.RID == rid && e.Deleted {
				leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
				return true
			}
		}
		leaf = leaf.next
	}
	return false
}

// MarkDeleted sets (or clears) the deleted flag on the entry with the given
// key and RID, reporting whether the entry was found. Flagging instead of
// removing is the §4.2.2 mechanism that preserves isolation for secondary
// index probes racing with uncommitted deletes. When the key holds several
// entries with the same RID (a flagged relic next to a reused-slot live
// entry), the one not already in the target state is toggled, so flagging a
// re-deleted record does not no-op against the relic.
func (t *Tree) MarkDeleted(key storage.Key, rid storage.RID, deleted bool) bool {
	t.latch.Lock()
	defer t.latch.Unlock()
	found := false
	leaf := t.findLeaf(key)
	for leaf != nil {
		for i := range leaf.entries {
			e := &leaf.entries[i]
			cmp := bytes.Compare(e.Key, key)
			if cmp > 0 {
				return found
			}
			if cmp == 0 && e.RID == rid {
				found = true
				if e.Deleted != deleted {
					if deleted {
						t.size--
					} else {
						t.size++
					}
					e.Deleted = deleted
					return true
				}
			}
		}
		leaf = leaf.next
	}
	return found
}

// findLeaf descends to the leftmost leaf that may contain key. On equality
// with a branch key it descends left, because duplicate keys may straddle a
// split point; readers then walk forward along the leaf chain.
func (t *Tree) findLeaf(key storage.Key) *node {
	n := t.root
	for !n.leaf {
		i := 0
		for i < len(n.keys) && bytes.Compare(key, n.keys[i]) > 0 {
			i++
		}
		n = n.children[i]
	}
	return n
}

// insert adds the entry, splitting nodes as needed. Caller holds the write
// latch.
func (t *Tree) insert(e Entry) {
	newChild, splitKey := t.insertInto(t.root, e)
	if newChild != nil {
		newRoot := &node{
			keys:     []storage.Key{splitKey},
			children: []*node{t.root, newChild},
		}
		t.root = newRoot
	}
}

// insertInto inserts into the subtree rooted at n. If n splits, it returns the
// new right sibling and the key separating them.
func (t *Tree) insertInto(n *node, e Entry) (*node, storage.Key) {
	if n.leaf {
		pos := 0
		for pos < len(n.entries) && bytes.Compare(n.entries[pos].Key, e.Key) <= 0 {
			pos++
		}
		n.entries = append(n.entries, Entry{})
		copy(n.entries[pos+1:], n.entries[pos:])
		n.entries[pos] = e
		if len(n.entries) <= degree {
			return nil, nil
		}
		return t.splitLeaf(n)
	}
	i := 0
	for i < len(n.keys) && bytes.Compare(e.Key, n.keys[i]) >= 0 {
		i++
	}
	newChild, splitKey := t.insertInto(n.children[i], e)
	if newChild == nil {
		return nil, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = splitKey
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = newChild
	if len(n.keys) <= degree {
		return nil, nil
	}
	return t.splitBranch(n)
}

// splitLeaf splits an over-full leaf. Flagged entries are NOT collected here:
// dropping one would sever an uncommitted delete's rollback path and hide the
// record's version chain from horizon-pinned snapshots. Physical removal is the
// pruner's job (DeleteFlagged), once the flagged entry is provably dead.
func (t *Tree) splitLeaf(n *node) (*node, storage.Key) {
	mid := len(n.entries) / 2
	right := &node{leaf: true}
	right.entries = append(right.entries, n.entries[mid:]...)
	n.entries = n.entries[:mid:mid]
	right.next = n.next
	n.next = right
	return right, right.entries[0].Key
}

func (t *Tree) splitBranch(n *node) (*node, storage.Key) {
	mid := len(n.keys) / 2
	splitKey := n.keys[mid]
	right := &node{}
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return right, splitKey
}

// Validate checks the structural invariants of the tree: leaf keys are sorted,
// leaves are chained in order, and every branch key separates its subtrees.
// It is used by tests and returns a descriptive error on violation.
func (t *Tree) Validate() error {
	t.latch.RLock()
	defer t.latch.RUnlock()
	var prev storage.Key
	var prevSet bool
	count := 0
	leaf := t.leftmostLeaf()
	for leaf != nil {
		for _, e := range leaf.entries {
			if prevSet && bytes.Compare(prev, e.Key) > 0 {
				return fmt.Errorf("btree %s: keys out of order: %s after %s", t.name, e.Key, prev)
			}
			prev = e.Key
			prevSet = true
			if !e.Deleted {
				count++
			}
		}
		leaf = leaf.next
	}
	if count != t.size {
		return fmt.Errorf("btree %s: size %d does not match %d live entries", t.name, t.size, count)
	}
	return nil
}

func (t *Tree) leftmostLeaf() *node {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	return n
}
