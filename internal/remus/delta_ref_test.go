package remus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/hv"
	"repro/internal/mem"
)

// refHashPage is the byte-wise FNV-1a page hash the sender used before
// the word-wise hash. It is kept as the baseline of BenchmarkHashPage.
func refHashPage(p []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// refEncodeDelta is the byte-wise delta encoder: the specification
// encodeDelta must match byte for byte, ok flag included.
func refEncodeDelta(dst, base, page []byte) (_ []byte, ok bool) {
	pos, i := 0, 0
	for i < mem.PageSize {
		for i < mem.PageSize && page[i] == base[i] {
			i++
		}
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

// TestHashPageVectors pins hashPage to published xxHash64 (seed 0)
// digests, covering the 32-byte stripe loop and each tail step.
func TestHashPageVectors(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"abc", 0x44bc2cf5ad770999},
		{"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1},
	} {
		if got := hashPage([]byte(tc.in)); got != tc.want {
			t.Errorf("hashPage(%q) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
	// One flipped bit anywhere in a page changes the hash.
	page := make([]byte, mem.PageSize)
	rand.New(rand.NewSource(1)).Read(page)
	h := hashPage(page)
	for _, off := range []int{0, 7, 8, 31, 32, 2048, mem.PageSize - 1} {
		page[off] ^= 1
		if hashPage(page) == h {
			t.Errorf("flipping byte %d left the hash unchanged", off)
		}
		page[off] ^= 1
	}
}

// checkEncodeDelta asserts encodeDelta and the byte-wise reference
// agree exactly on (base, page), and that an accepted delta round-trips.
func checkEncodeDelta(t *testing.T, base, page []byte) {
	t.Helper()
	want, wantOK := refEncodeDelta(nil, base, page)
	got, gotOK := encodeDelta(nil, base, page)
	if gotOK != wantOK || !bytes.Equal(got, want) {
		t.Fatalf("encodeDelta = (%d bytes, ok=%v), reference = (%d bytes, ok=%v)", len(got), gotOK, len(want), wantOK)
	}
	if !gotOK {
		return
	}
	work := append([]byte(nil), base...)
	if err := applyDelta(work, got); err != nil {
		t.Fatalf("applyDelta: %v", err)
	}
	if !bytes.Equal(work, page) {
		t.Fatal("delta round trip diverged")
	}
}

func TestEncodeDeltaMatchesReference(t *testing.T) {
	base := make([]byte, mem.PageSize)
	rand.New(rand.NewSource(11)).Read(base)
	// Each span flips the page bytes [from, to) against base.
	type span struct{ from, to int }
	gap := func(g int) []span { return []span{{100, 102}, {102 + g, 104 + g}} }
	cases := []struct {
		name  string
		spans []span
	}{
		{"identical", nil},
		{"byte0", []span{{0, 1}}},
		{"byte7", []span{{7, 8}}},
		{"byte8", []span{{8, 9}}},
		{"byte63", []span{{63, 64}}},
		{"byte64", []span{{64, 65}}},
		{"byte4095", []span{{4095, 4096}}},
		{"straddle-word", []span{{6, 10}}},
		{"straddle-chunk", []span{{60, 68}}},
		{"straddle-two-chunks", []span{{62, 130}}},
		{"chunk-aligned-run", []span{{128, 192}}},
		{"last-word", []span{{4088, 4096}}},
		{"gap-minGap-1", gap(minGap - 1)},
		{"gap-minGap", gap(minGap)},
		{"gap-minGap+1", gap(minGap + 1)},
		{"sparse-words", []span{{3, 4}, {17, 18}, {250, 251}, {1000, 1003}, {4000, 4001}}},
		{"all-different", []span{{0, mem.PageSize}}}, // raw fallback
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			page := append([]byte(nil), base...)
			for _, s := range tc.spans {
				for k := s.from; k < s.to; k++ {
					page[k] ^= 0x5A
				}
			}
			checkEncodeDelta(t, base, page)
		})
	}
}

// FuzzEncodeDeltaMatchesReference applies fuzzed XOR runs to a seeded
// random page and requires encodeDelta to match the byte-wise
// reference exactly. Each 4-byte group of edits is one run: a 2-byte
// big-endian offset, a length and an XOR mask.
func FuzzEncodeDeltaMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{0, 0, 1, 0xFF})
	f.Add(int64(3), []byte{0, 63, 2, 1, 0x0F, 0xFF, 1, 0x80})
	f.Add(int64(4), []byte{0, 100, 2, 1, 0, 105, 2, 1})
	f.Add(int64(5), []byte{0, 100, 2, 1, 0, 106, 2, 1})
	f.Add(int64(6), []byte{0, 60, 255, 3, 1, 0, 255, 7})
	f.Fuzz(func(t *testing.T, seed int64, edits []byte) {
		base := make([]byte, mem.PageSize)
		rand.New(rand.NewSource(seed)).Read(base)
		page := append([]byte(nil), base...)
		for ; len(edits) >= 4; edits = edits[4:] {
			off := int(binary.BigEndian.Uint16(edits)) % mem.PageSize
			end := off + int(edits[2])
			if end > mem.PageSize {
				end = mem.PageSize
			}
			for k := off; k < end; k++ {
				page[k] ^= edits[3]
			}
		}
		checkEncodeDelta(t, base, page)
	})
}

// A batch larger than the restore side's read buffer, whose first
// record the backup rejects, fails the sender's write mid-batch: the
// write error must still carry the restore cause.
func TestSendWriteSurfacesRestoreError(t *testing.T) {
	const pages = 32
	h := hv.New(2*pages + 4)
	primary, err := h.CreateDomain("primary", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	backup, err := h.CreateDomain("backup", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := NewConduitMode(h, backup, []byte("0123456789abcdef"), ModeDeltaDedup, 0)
	if err != nil {
		t.Fatalf("NewConduitMode: %v", err)
	}
	page := make([]byte, mem.PageSize)
	rng := rand.New(rand.NewSource(5))
	all := make([]mem.PFN, pages)
	for i := range all {
		all[i] = mem.PFN(i)
		rng.Read(page)
		if err := primary.WritePhys(uint64(i)*mem.PageSize, page); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
	}
	if err := h.DestroyDomain(backup.ID()); err != nil {
		t.Fatalf("DestroyDomain: %v", err)
	}
	err = c.SendCheckpoint(all, pageReader(h, primary))
	if !errors.Is(err, hv.ErrBadState) {
		t.Fatalf("SendCheckpoint error %v does not wrap the restore cause (hv.ErrBadState)", err)
	}
	if err := c.Close(); !errors.Is(err, hv.ErrBadState) {
		t.Fatalf("Close error %v does not wrap the restore cause (hv.ErrBadState)", err)
	}
}
