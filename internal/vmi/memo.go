package vmi

import (
	"sync"

	"repro/internal/mem"
)

// MemoStats counts incremental-walk memo activity.
type MemoStats struct {
	// Hits are walks answered from the memo: zero guest reads, zero
	// nodes walked.
	Hits int
	// Misses are walks that ran against guest memory (and recorded the
	// pages they touched).
	Misses int
	// Invalidated counts memo entries dropped because a page they
	// touched was dirtied.
	Invalidated int
}

// memoEntry is one memoized walk result plus the guest pages the walk
// read. The entry stays valid exactly until one of those pages is
// dirtied: a kernel list cannot change without writing a page the walk
// touched (inserting, removing, or mutating a node rewrites a next
// pointer or record the walk read), so clean touched pages imply an
// identical re-walk.
type memoEntry struct {
	result any
	pages  []mem.PFN
}

// WalkMemo memoizes kernel-structure walks (process list, pid hash,
// module list, syscall table, canary table) across epochs. Each miss
// records which guest pages the walk touched; at every epoch boundary
// the controller feeds the harvested dirty bitmap to Invalidate, which
// drops only entries whose touched pages were written. A steady-state
// scan therefore re-walks only the structures the guest actually
// modified.
//
// One memo is shared by a context and all its forks: concurrent scan
// modules asking for the same structure are single-flighted under the
// memo lock, so exactly one of them walks guest memory and the total
// node/read counters stay deterministic regardless of module
// scheduling.
type WalkMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	stats   MemoStats
}

// NewWalkMemo creates an empty memo.
func NewWalkMemo() *WalkMemo {
	return &WalkMemo{entries: make(map[string]*memoEntry)}
}

// Stats returns the memo's cumulative counters.
func (m *WalkMemo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Entries reports the number of currently memoized walks.
func (m *WalkMemo) Entries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Invalidate drops every memoized walk that touched a dirty page,
// returning the number dropped. The controller calls it at each epoch
// boundary, after harvesting the dirty bitmap and before the audit
// scans.
func (m *WalkMemo) Invalidate(dirty *mem.Bitmap) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for key, e := range m.entries {
		for _, pfn := range e.pages {
			if int(pfn) < dirty.Len() && dirty.Test(int(pfn)) {
				delete(m.entries, key)
				m.stats.Invalidated++
				n++
				break
			}
		}
	}
	return n
}

// InvalidateAll drops every memoized walk, returning the number
// dropped. Used after a rollback restores guest memory wholesale: the
// restore does not pass through the dirty log, so no bitmap describes
// what changed.
func (m *WalkMemo) InvalidateAll() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.entries)
	m.stats.Invalidated += n
	m.entries = make(map[string]*memoEntry)
	return n
}

// SetMemo attaches (or detaches, with nil) an incremental-walk memo.
// Attach only after Preprocess: results memoized before known-good
// state is captured would reflect boot-time structures with no dirty
// bitmap yet covering the gap. Forks created after SetMemo share the
// memo.
func (c *Context) SetMemo(m *WalkMemo) { c.memo = m }

// Memo returns the attached walk memo, or nil.
func (c *Context) Memo() *WalkMemo { return c.memo }

// memoized single-flights a structure walk through the context's memo.
// Without a memo it just runs the walk. On a hit the stored result is
// returned (copied, so callers may mutate it) with zero guest reads; on
// a miss the walk runs with page tracing enabled and its result and
// touched-page set are stored. The memo lock is held for the duration
// of a miss so concurrent forks asking for the same structure wait and
// then hit, keeping aggregate work counters deterministic.
func memoized[E any](c *Context, key string, walk func() ([]E, error)) ([]E, error) {
	m := c.memo
	if m == nil {
		return walk()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok {
		m.stats.Hits++
		return append([]E(nil), e.result.([]E)...), nil
	}
	m.stats.Misses++
	c.trace = make(map[mem.PFN]struct{})
	res, err := walk()
	tr := c.trace
	c.trace = nil
	if err != nil {
		return nil, err
	}
	pages := make([]mem.PFN, 0, len(tr))
	for pfn := range tr {
		pages = append(pages, pfn)
	}
	m.entries[key] = &memoEntry{result: res, pages: pages}
	return append([]E(nil), res...), nil
}

// tracePages records the guest pages a physical read touches into the
// active walk trace, if any.
func (c *Context) tracePages(paddr uint64, n int) {
	if c.trace == nil || n <= 0 {
		return
	}
	first := mem.PFN(paddr >> mem.PageShift)
	last := mem.PFN((paddr + uint64(n) - 1) >> mem.PageShift)
	for pfn := first; pfn <= last; pfn++ {
		c.trace[pfn] = struct{}{}
	}
}
