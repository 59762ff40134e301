package remus

import (
	"math/rand"
	"testing"

	"repro/internal/hv"
	"repro/internal/mem"
)

// benchPages returns a random base page and a copy of it with one
// 32-byte write, the shape of a small-write epoch's dirty page.
func benchPages() (base, page []byte) {
	base = make([]byte, mem.PageSize)
	rand.New(rand.NewSource(9)).Read(base)
	page = append([]byte(nil), base...)
	for k := 1500; k < 1532; k++ {
		page[k] ^= 0xC3
	}
	return base, page
}

// hashSink keeps the benchmarked hash calls from being optimized away.
var hashSink uint64

// BenchmarkHashPage times one 4 KiB page hash (ns/op is ns/page),
// against the byte-wise FNV-1a it replaced.
func BenchmarkHashPage(b *testing.B) {
	_, page := benchPages()
	for _, bc := range []struct {
		name string
		hash func([]byte) uint64
	}{
		{"xxhash64", hashPage},
		{"fnv1a-bytewise", refHashPage},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(mem.PageSize)
			for i := 0; i < b.N; i++ {
				hashSink ^= bc.hash(page)
			}
		})
	}
}

// BenchmarkEncodeDelta times the delta encoding of one page carrying a
// 32-byte write (ns/op is ns/page), against the byte-wise reference.
func BenchmarkEncodeDelta(b *testing.B) {
	base, page := benchPages()
	for _, bc := range []struct {
		name   string
		encode func(dst, base, page []byte) ([]byte, bool)
	}{
		{"wordwise", encodeDelta},
		{"bytewise", refEncodeDelta},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(mem.PageSize)
			dst := make([]byte, 0, mem.PageSize)
			for i := 0; i < b.N; i++ {
				dst, _ = bc.encode(dst[:0], base, page)
			}
		})
	}
}

// BenchmarkSendCheckpointV2 times one acknowledged delta+dedup batch of
// 256 pages, each carrying a fresh 16-48 byte write: hash, table
// lookups, delta encode, encrypt, pipe, decrypt, decode, apply to the
// backup domain and ack. Page contents are served from memory so the
// primary's read path is not timed; rewriting them between batches is
// outside the timer.
func BenchmarkSendCheckpointV2(b *testing.B) {
	const pages = 256
	h := hv.New(pages + 4)
	backup, err := h.CreateDomain("backup", pages)
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewConduitMode(h, backup, []byte("0123456789abcdef"), ModeDeltaDedup, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(13))
	contents := make([][]byte, pages)
	pfns := make([]mem.PFN, pages)
	for i := range contents {
		contents[i] = make([]byte, mem.PageSize)
		rng.Read(contents[i])
		pfns[i] = mem.PFN(i)
	}
	page := func(pfn mem.PFN) ([]byte, error) { return contents[pfn], nil }
	if err := c.SendCheckpoint(pfns, page); err != nil { // initial sync: raw
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, p := range contents {
			n := 16 + rng.Intn(33)
			off := rng.Intn(mem.PageSize - n)
			rng.Read(p[off : off+n])
		}
		b.StartTimer()
		if err := c.SendCheckpoint(pfns, page); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := c.Stats(); s.DeltaPages < b.N*pages {
		b.Fatalf("delta pages %d < %d: batches did not ride the delta path", s.DeltaPages, b.N*pages)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
}
