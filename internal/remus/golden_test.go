package remus

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"net"
	"testing"

	"repro/internal/mem"
)

// batchRecorder wraps the primary side of a conduit and keeps the
// SHA-256 of every Write. Each send is exactly one Write of the whole
// encrypted batch, so the i-th digest is the i-th batch as it crossed
// the wire.
type batchRecorder struct {
	net.Conn
	sums []string
}

func (r *batchRecorder) Write(p []byte) (int, error) {
	s := sha256.Sum256(p)
	r.sums = append(r.sums, hex.EncodeToString(s[:]))
	return r.Conn.Write(p)
}

// goldenWireSums pins the encrypted bytes of every batch of the session
// below. The sender's page hash, delta scan and restore-side buffering
// may change how the work is done, never what is sent: any change to an
// opcode choice, a delta run, a dup reference or the record order moves
// a digest here.
var goldenWireSums = []string{
	"9893d994d0faa111556f81ac6e39a7ef8adefbdcc734bc1eb4b231d4aa623805",
	"508fc3d148ec4c4dffd6b7514ee68b92f6851d4fa2396070dbe4411877ab3dcc",
	"dd964da4d50644efdfb961073a3b7ba6060dcab3e3e996ac8be87ec4648c7ead",
	"0448e9e9aa51ea7d0dee05c9f43aa75123c384d4ca550171204a1c9b99368a59",
	"a6e47a429acc3bdadd7186c4bcb4e7bc71c99c239c6828b2abbd9e0c55a7fd18",
	"7f8ea4b559bd668a2d7cb55a566fd8e9a68e60b6b77b37723b73057c6fc36a25",
	"db37a2caf41467d9edcbe7c38ea0aac1b681b6d899d6e0ca62fd767ec1e3a15c",
	"1823ad181da11a01382fac965d9cb17e5c99b7c99ecba0dc515d0252f8c284c3",
	"cd9c192178ec11eef2a747e8f9ce2626bacf6cdc08465d4d9765bc3965dcba71",
	"652e81c440717739e073cc06d094b8d565f1af228a0cffd2bac2ccbd7680a25d",
	"7808cd71837bea784fc470300ce4043338eee589a8e3fe1dc74c419e55c21efd",
	"eb738be83bc45a2e4e6289ebed65cd2e5a9463a637585bb91e5f97e8bab28dc6",
	"1682c02493d8f7e5e6b522feb0d54d5fe5200118dc34be1e316d142925535c20",
	"991f1353101c64a23dab1265e771b199bb306459b2c2b68007ba74fa49533d99",
	"4f023461351a26feeb0cf96f2260b8882823ee80cd2b1dcd046bb9a8be488b81",
	"53ca364ad30bfd7063ad633c598f9903436ae335c0df30120cfa685fd76da9b7",
	"37cd88da4cbb453ecf1cbc526439f75904d0a6f826faa40bb7869e8cf7b14729",
	"e57775b4155ddad78fe04e4fc6da4d555c5a39cc447207b3b23ce3daaa0df65a",
	"116855b5a0b48b0bf964658a6f5b8f757a80c8b6cb63f75c51864ef7f4372e2c",
	"2950976da99e60b99069f93b6429e62d31b53e9788edbbbdf0724be8dff48db3",
}

// TestGoldenWireBytes runs a fixed-seed delta+dedup session of 20
// batches whose writes produce every record kind (raw, delta, same,
// zero and dup) and compares each batch's wire bytes with the pinned
// digests.
func TestGoldenWireBytes(t *testing.T) {
	const pages = 64
	h, primary, backup, c := newModeConduitPair(t, pages, ModeDeltaDedup, 0)
	rec := &batchRecorder{Conn: c.conn}
	c.conn = rec
	rng := rand.New(rand.NewSource(20181210))
	write := func(pfn, off int, data []byte) {
		t.Helper()
		if err := primary.WritePhys(uint64(pfn)*mem.PageSize+uint64(off), data); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
	}
	page := make([]byte, mem.PageSize)
	all := make([]mem.PFN, pages)
	for i := range all {
		all[i] = mem.PFN(i)
	}
	// Initial sync: a quarter of the pages hold random content, the
	// rest are zero.
	for pfn := 0; pfn < pages; pfn += 4 {
		rng.Read(page)
		write(pfn, 0, page)
	}
	if err := c.SendCheckpoint(all, pageReader(h, primary)); err != nil {
		t.Fatalf("initial SendCheckpoint: %v", err)
	}
	for batch := 1; batch < 20; batch++ {
		dirty := map[mem.PFN]bool{}
		// Small rewrites at offsets that land on and across word and
		// 64-byte chunk boundaries: delta records.
		for n := 4 + rng.Intn(8); n > 0; n-- {
			pfn := rng.Intn(pages)
			data := make([]byte, 1+rng.Intn(40))
			rng.Read(data)
			off := rng.Intn(mem.PageSize - len(data))
			if rng.Intn(3) == 0 {
				off = 64*rng.Intn(mem.PageSize/64-1) + 60 // straddles a chunk boundary
			}
			write(pfn, off, data)
			dirty[mem.PFN(pfn)] = true
		}
		// Dirtied but unchanged pages: same records.
		for n := 1 + rng.Intn(3); n > 0; n-- {
			dirty[mem.PFN(rng.Intn(pages))] = true
		}
		// A copy of another page: a dup record.
		src, dst := rng.Intn(pages), rng.Intn(pages)
		if err := primary.ReadPhys(uint64(src)*mem.PageSize, page); err != nil {
			t.Fatalf("ReadPhys: %v", err)
		}
		write(dst, 0, page)
		dirty[mem.PFN(dst)] = true
		// Every third batch zeroes a page; every fifth rewrites one
		// whole page, which the delta cannot beat: zero and raw records.
		if batch%3 == 0 {
			pfn := rng.Intn(pages)
			write(pfn, 0, make([]byte, mem.PageSize))
			dirty[mem.PFN(pfn)] = true
		}
		if batch%5 == 0 {
			pfn := rng.Intn(pages)
			rng.Read(page)
			write(pfn, 0, page)
			dirty[mem.PFN(pfn)] = true
		}
		var pfns []mem.PFN
		for pfn := mem.PFN(0); pfn < pages; pfn++ {
			if dirty[pfn] {
				pfns = append(pfns, pfn)
			}
		}
		if err := c.SendCheckpoint(pfns, pageReader(h, primary)); err != nil {
			t.Fatalf("batch %d: SendCheckpoint: %v", batch, err)
		}
	}
	domainPagesEqual(t, primary, backup, pages)
	s := c.Stats()
	if s.RawPages == 0 || s.DeltaPages == 0 || s.SamePages == 0 || s.ZeroPages == 0 || s.DupPages == 0 {
		t.Fatalf("session does not cover every record kind: %+v", s)
	}
	if len(rec.sums) != len(goldenWireSums) {
		t.Fatalf("recorded %d batches, want %d", len(rec.sums), len(goldenWireSums))
	}
	for i, s := range rec.sums {
		if s != goldenWireSums[i] {
			t.Errorf("batch %d wire digest %s, want %s", i, s, goldenWireSums[i])
		}
	}
}
