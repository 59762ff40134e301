// The v2 wire protocol: instead of shipping every dirty page as a full
// raw 4KiB record (the v1/Remus baseline), the sender keeps a
// shipped-version table — per-PFN content hash plus the last-shipped
// copy, bounded by a page budget — and emits each page as whichever
// record is smallest: an XOR delta against the last-shipped version
// (zero-run/varint encoded), a hash-match reference (unchanged page,
// zero page, or duplicate of another shipped page), or the raw page
// when the encoded form would be no smaller. The restore side needs no
// table of its own: the backup domain IS the mirror of every
// last-shipped version, so deltas apply against it and duplicate
// references read from it.
package remus

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"

	"repro/internal/cost"
	"repro/internal/mem"
)

// Mode selects the conduit's wire protocol.
type Mode int

const (
	// ModeRaw is the v1 baseline: full 4KiB records for every page.
	ModeRaw Mode = iota
	// ModeDelta ships XOR deltas against the last-shipped version of
	// each page, falling back to raw when the delta is not smaller.
	ModeDelta
	// ModeDeltaDedup adds hash-match references: unchanged pages,
	// all-zero pages, and cross-page duplicates ship as references
	// instead of payloads.
	ModeDeltaDedup
)

// v2 per-record opcodes. Each record is an 8-byte little-endian PFN,
// one opcode byte, and an opcode-dependent payload.
const (
	opRaw   = 0x00 // payload: mem.PageSize raw bytes
	opDelta = 0x01 // payload: 2-byte LE length + XOR-delta runs
	opSame  = 0x02 // no payload: page equals its last-shipped version
	opZero  = 0x03 // no payload: page is all zeroes
	opDup   = 0x04 // payload: 8-byte LE PFN whose current backup copy to clone
)

var zeroPage [mem.PageSize]byte
var zeroHash = hashPage(zeroPage[:])

// xxHash64 primes.
const (
	xxPrime1 uint64 = 11400714785074694791
	xxPrime2 uint64 = 14029467366897019727
	xxPrime3 uint64 = 1609587929392839161
	xxPrime4 uint64 = 9650029242287828579
	xxPrime5 uint64 = 2870177450012600261

	// Lane seeds 1 and 4 for seed 0: xxPrime1+xxPrime2 and -xxPrime1,
	// mod 2^64.
	xxLane1 uint64 = 6983438078262162902
	xxLane4 uint64 = 7046029288634856825
)

// hashPage is xxHash64 (seed 0) over the page contents: four
// independent lanes over 8-byte words, so the multiplies of one stripe
// overlap instead of chaining byte by byte. The hash never reaches the
// wire; it only picks candidates, and every hash match is confirmed
// with bytes.Equal before a reference record is emitted.
func hashPage(p []byte) uint64 {
	n := len(p)
	var h uint64
	if n >= 32 {
		v1, v2, v3, v4 := xxLane1, xxPrime2, uint64(0), xxLane4
		for ; len(p) >= 32; p = p[32:] {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(p[0:8]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(p[8:16]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(p[16:24]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(p[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxMerge(h, v1)
		h = xxMerge(h, v2)
		h = xxMerge(h, v3)
		h = xxMerge(h, v4)
	} else {
		h = xxPrime5
	}
	h += uint64(n)
	for ; len(p) >= 8; p = p[8:] {
		h ^= xxRound(0, binary.LittleEndian.Uint64(p))
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
	}
	if len(p) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(p)) * xxPrime1
		h = bits.RotateLeft64(h, 23)*xxPrime2 + xxPrime3
		p = p[4:]
	}
	for _, b := range p {
		h ^= uint64(b) * xxPrime5
		h = bits.RotateLeft64(h, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

// xxRound folds one 8-byte word into a lane accumulator.
func xxRound(acc, input uint64) uint64 {
	acc += input * xxPrime2
	return bits.RotateLeft64(acc, 31) * xxPrime1
}

// xxMerge folds a finished lane into the combined hash.
func xxMerge(acc, v uint64) uint64 {
	acc ^= xxRound(0, v)
	return acc*xxPrime1 + xxPrime4
}

// ventry is one shipped-version table entry: the last content shipped
// for a PFN, which is exactly what the backup domain holds at that PFN.
type ventry struct {
	pfn  mem.PFN
	hash uint64
	data []byte // mem.PageSize copy of the last-shipped contents
}

// versionTable is the sender-side shipped-version table: per-PFN hash
// and last-shipped copy under an LRU page budget, plus a hash index for
// cross-page dedup. Invariant: an entry exists only for pages whose
// recorded contents the backup domain currently holds, so any entry is
// a valid delta base and a valid opDup reference.
type versionTable struct {
	budget  int                       // max entries; <= 0 is unbounded
	entries map[mem.PFN]*list.Element // element value is *ventry
	lru     *list.List                // front = most recently shipped
	byHash  map[uint64][]*ventry      // dedup index, bucket in insert order
}

func newVersionTable(budget int) *versionTable {
	return &versionTable{
		budget:  budget,
		entries: make(map[mem.PFN]*list.Element),
		lru:     list.New(),
		byHash:  make(map[uint64][]*ventry),
	}
}

// lookup returns the entry for pfn without touching LRU order (every
// lookup is followed by an update, which refreshes it).
func (t *versionTable) lookup(pfn mem.PFN) *ventry {
	if el, ok := t.entries[pfn]; ok {
		return el.Value.(*ventry)
	}
	return nil
}

// findDup returns another PFN whose last-shipped contents equal page.
// Bucket order is deterministic (insertion order), so the chosen
// reference is reproducible run to run.
func (t *versionTable) findDup(pfn mem.PFN, hash uint64, page []byte) (mem.PFN, bool) {
	for _, e := range t.byHash[hash] {
		if e.pfn != pfn && bytes.Equal(e.data, page) {
			return e.pfn, true
		}
	}
	return 0, false
}

// update records page as pfn's last-shipped version, evicting the
// least-recently-shipped entry when the budget is exceeded. An evicted
// page simply loses its delta/dedup base and ships raw next time.
func (t *versionTable) update(pfn mem.PFN, hash uint64, page []byte) {
	if el, ok := t.entries[pfn]; ok {
		e := el.Value.(*ventry)
		if e.hash != hash {
			t.unindex(e)
			e.hash = hash
			t.byHash[hash] = append(t.byHash[hash], e)
		}
		copy(e.data, page)
		t.lru.MoveToFront(el)
		return
	}
	if t.budget > 0 && t.lru.Len() >= t.budget {
		back := t.lru.Back()
		old := back.Value.(*ventry)
		t.unindex(old)
		delete(t.entries, old.pfn)
		t.lru.Remove(back)
	}
	e := &ventry{pfn: pfn, hash: hash, data: append(make([]byte, 0, mem.PageSize), page...)}
	t.entries[pfn] = t.lru.PushFront(e)
	t.byHash[hash] = append(t.byHash[hash], e)
}

func (t *versionTable) unindex(e *ventry) {
	bucket := t.byHash[e.hash]
	for i, x := range bucket {
		if x == e {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(t.byHash, e.hash)
	} else {
		t.byHash[e.hash] = bucket
	}
}

// minGap is the shortest unchanged run worth encoding as a skip: a
// skip/length varint pair costs at least two bytes, so unchanged gaps
// shorter than this fold into the surrounding literal.
const minGap = 4

// encodeDelta appends the XOR delta of page against base to dst as
// (skip uvarint, literal-length uvarint, XOR literal bytes) runs; bytes
// not covered by any run are unchanged. ok is false when the encoding
// reached mem.PageSize — the caller falls back to a raw record. dst is
// returned either way so its capacity is reused.
func encodeDelta(dst, base, page []byte) (_ []byte, ok bool) {
	pos, i := 0, 0
	for i < mem.PageSize {
		i = nextDiff(base, page, i)
		if i == mem.PageSize {
			break
		}
		start := i
		end := i + 1
		for j := i + 1; j < mem.PageSize; j++ {
			if page[j] != base[j] {
				end = j + 1
			} else if j-end+1 >= minGap {
				break
			}
		}
		dst = binary.AppendUvarint(dst, uint64(start-pos))
		dst = binary.AppendUvarint(dst, uint64(end-start))
		for k := start; k < end; k++ {
			dst = append(dst, page[k]^base[k])
		}
		if len(dst) >= mem.PageSize {
			return dst, false
		}
		pos, i = end, end
	}
	return dst, true
}

// nextDiff returns the first index at or after i where a and b differ,
// or len(a) when they agree from i on. Equal stretches are skipped 64
// bytes at a time, then one 8-byte word at a time, and the lowest set
// bit of the first nonzero XOR word locates the differing byte (words
// are read little-endian, so bit order is byte order).
func nextDiff(a, b []byte, i int) int {
	const chunk = 64
	for i+chunk <= len(a) && bytes.Equal(a[i:i+chunk], b[i:i+chunk]) {
		i += chunk
	}
	for ; i+8 <= len(a); i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < len(a) && a[i] == b[i] {
		i++
	}
	return i
}

// applyDelta applies an encoded XOR delta in place to page (the
// receiver's copy of the last-shipped version). Every offset is
// validated before the page is touched, so malformed input fails closed
// without corrupting the page or reading out of bounds.
func applyDelta(page, delta []byte) error {
	pos, off := 0, 0
	for off < len(delta) {
		skip, n := binary.Uvarint(delta[off:])
		if n <= 0 {
			return errors.New("remus: delta: bad skip varint")
		}
		off += n
		lit, n := binary.Uvarint(delta[off:])
		if n <= 0 || lit == 0 {
			return errors.New("remus: delta: bad literal length")
		}
		off += n
		if skip > mem.PageSize || lit > mem.PageSize || pos+int(skip)+int(lit) > mem.PageSize {
			return errors.New("remus: delta: runs exceed page")
		}
		if off+int(lit) > len(delta) {
			return errors.New("remus: delta: truncated literal")
		}
		pos += int(skip)
		for k := 0; k < int(lit); k++ {
			page[pos+k] ^= delta[off+k]
		}
		off += int(lit)
		pos += int(lit)
	}
	return nil
}

// Stats returns a snapshot of the conduit's cumulative v2 wire
// accounting. Nil-safe; a ModeRaw conduit always reports zeroes.
func (c *Conduit) Stats() cost.ReplicationCounts {
	if c == nil {
		return cost.ReplicationCounts{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// sendV2 serializes one batch in the v2 wire format under c.mu.
func (c *Conduit) sendV2(pfns []mem.PFN, page func(mem.PFN) ([]byte, error)) error {
	buf := append(c.sendBuf[:0], 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(pfns)))
	var d cost.ReplicationCounts
	for _, pfn := range pfns {
		p, err := page(pfn)
		if err != nil {
			c.sendBuf = buf
			return fmt.Errorf("remus: read pfn %d: %w", pfn, err)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pfn))
		buf = c.encodePage(buf, pfn, p, &d)
	}
	c.sendBuf = buf
	c.enc.XORKeyStream(buf, buf)
	c.applyTamper(buf)
	if _, err := c.conn.Write(buf); err != nil {
		return c.pipeErr("send checkpoint", err)
	}
	c.sentBytes.Add(int64(len(buf)))
	d.Batches = 1
	d.Pages = len(pfns)
	d.WireBytes = int64(len(buf))
	d.RawBytes = int64(4 + len(pfns)*(8+mem.PageSize))
	c.stats.Add(d)
	c.trimSendBuf(len(buf))
	return nil
}

// encodePage appends one page's record (opcode + payload; the PFN is
// already written) and updates the shipped-version table so the entry
// matches what the backup will hold once this batch is applied.
func (c *Conduit) encodePage(buf []byte, pfn mem.PFN, p []byte, d *cost.ReplicationCounts) []byte {
	h := hashPage(p)
	if c.mode == ModeDeltaDedup {
		if e := c.table.lookup(pfn); e != nil && e.hash == h && bytes.Equal(e.data, p) {
			d.SamePages++
			c.table.update(pfn, h, p)
			return append(buf, opSame)
		}
		if h == zeroHash && bytes.Equal(p, zeroPage[:]) {
			d.ZeroPages++
			c.table.update(pfn, h, p)
			return append(buf, opZero)
		}
		if ref, found := c.table.findDup(pfn, h, p); found {
			d.DupPages++
			c.table.update(pfn, h, p)
			buf = append(buf, opDup)
			return binary.LittleEndian.AppendUint64(buf, uint64(ref))
		}
	}
	if e := c.table.lookup(pfn); e != nil {
		d.EncodedPages++
		delta, ok := encodeDelta(c.deltaBuf[:0], e.data, p)
		c.deltaBuf = delta
		if ok {
			d.DeltaPages++
			c.table.update(pfn, h, p)
			buf = append(buf, opDelta)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(delta)))
			return append(buf, delta...)
		}
	}
	d.RawPages++
	c.table.update(pfn, h, p)
	buf = append(buf, opRaw)
	return append(buf, p...)
}

// restoreBufSize is the restore side's read buffer: large enough that
// a batch of small records crosses the pipe in a few reads instead of
// several per record.
const restoreBufSize = 64 << 10

// restoreV2 is the backup-side loop for the v2 protocol: apply one
// validated batch, acknowledge it, repeat. Any failure tears the
// conduit's restore side down so blocked senders unblock and can read
// the recorded cause. The pipe is read through one buffer that lives as
// long as the conduit; a read never waits for more bytes than the
// sender has written, so buffering cannot stall a batch.
func (c *Conduit) restoreV2(conn, ackConn net.Conn, dec cipher.Stream) {
	defer close(c.done)
	r := bufio.NewReaderSize(conn, restoreBufSize)
	pageBuf := make([]byte, mem.PageSize)
	deltaBuf := make([]byte, mem.PageSize)
	for {
		if err := c.applyBatchV2(r, dec, pageBuf, deltaBuf); err != nil {
			c.failRestore(conn, ackConn, err)
			return
		}
		if _, err := ackConn.Write([]byte{ackByte}); err != nil {
			c.failRestore(conn, ackConn, err)
			return
		}
	}
}

// applyBatchV2 reads, decrypts, validates, and applies one v2 batch to
// the backup domain. It fails closed: malformed counts, out-of-range
// PFNs, bad opcodes, oversized deltas, and truncated records all return
// an error before any unvalidated byte reaches the domain — a rejected
// record never partially applies.
func (c *Conduit) applyBatchV2(r io.Reader, dec cipher.Stream, pageBuf, deltaBuf []byte) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	dec.XORKeyStream(hdr[:], hdr[:])
	count := binary.LittleEndian.Uint32(hdr[:])
	pages := uint64(c.backup.Pages())
	if uint64(count) > pages {
		return fmt.Errorf("remus: restore: batch of %d pages exceeds domain's %d", count, pages)
	}
	var head [9]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			return fmt.Errorf("remus: restore: record header: %w", err)
		}
		dec.XORKeyStream(head[:], head[:])
		pfn := binary.LittleEndian.Uint64(head[:8])
		if pfn >= pages {
			return fmt.Errorf("remus: restore: pfn %d out of range", pfn)
		}
		pa := pfn * mem.PageSize
		switch head[8] {
		case opRaw:
			if _, err := io.ReadFull(r, pageBuf); err != nil {
				return fmt.Errorf("remus: restore: raw page: %w", err)
			}
			dec.XORKeyStream(pageBuf, pageBuf)
			if err := c.backup.WritePhys(pa, pageBuf); err != nil {
				return err
			}
		case opDelta:
			var ln [2]byte
			if _, err := io.ReadFull(r, ln[:]); err != nil {
				return fmt.Errorf("remus: restore: delta length: %w", err)
			}
			dec.XORKeyStream(ln[:], ln[:])
			n := int(binary.LittleEndian.Uint16(ln[:]))
			if n >= mem.PageSize {
				return fmt.Errorf("remus: restore: %d-byte delta not shorter than a page", n)
			}
			delta := deltaBuf[:n]
			if _, err := io.ReadFull(r, delta); err != nil {
				return fmt.Errorf("remus: restore: delta payload: %w", err)
			}
			dec.XORKeyStream(delta, delta)
			if err := c.backup.ReadPhys(pa, pageBuf); err != nil {
				return err
			}
			if err := applyDelta(pageBuf, delta); err != nil {
				return err
			}
			if err := c.backup.WritePhys(pa, pageBuf); err != nil {
				return err
			}
		case opSame:
			// No payload: the backup already holds this page.
		case opZero:
			if err := c.backup.WritePhys(pa, zeroPage[:]); err != nil {
				return err
			}
		case opDup:
			var refb [8]byte
			if _, err := io.ReadFull(r, refb[:]); err != nil {
				return fmt.Errorf("remus: restore: dup reference: %w", err)
			}
			dec.XORKeyStream(refb[:], refb[:])
			ref := binary.LittleEndian.Uint64(refb[:])
			if ref >= pages {
				return fmt.Errorf("remus: restore: dup reference pfn %d out of range", ref)
			}
			if err := c.backup.ReadPhys(ref*mem.PageSize, pageBuf); err != nil {
				return err
			}
			if err := c.backup.WritePhys(pa, pageBuf); err != nil {
				return err
			}
		default:
			return fmt.Errorf("remus: restore: bad opcode %#x", head[8])
		}
	}
	return nil
}
