package cost

import (
	"reflect"
	"testing"
)

// counterSet is the reflection harness's view of one counter set: a
// pointer to a zero value, its Add and Sub, and its field table.
type counterSet struct {
	name   string
	zero   func() any          // *T
	add    func(dst, src any)  // dst.Add(*src)
	sub    func(a, b any) any  // a.Sub(b), boxed as T
	fields func(v any) []int64 // every table entry's Get, in table order
}

func setOf[T any](name string, add func(*T, T), sub func(T, T) T, table []Field[T]) counterSet {
	return counterSet{
		name: name,
		zero: func() any { return new(T) },
		add:  func(dst, src any) { add(dst.(*T), *src.(*T)) },
		sub:  func(a, b any) any { return sub(*a.(*T), *b.(*T)) },
		fields: func(v any) []int64 {
			out := make([]int64, len(table))
			for i, f := range table {
				out[i] = f.Get(*v.(*T))
			}
			return out
		},
	}
}

func counterSets() []counterSet {
	return []counterSet{
		setOf("Hypercalls", (*Hypercalls).Add, Hypercalls.Sub, HypercallFields),
		setOf("ScanCacheCounts", (*ScanCacheCounts).Add, ScanCacheCounts.Sub, ScanCacheFields),
		setOf("CoWCounts", (*CoWCounts).Add, CoWCounts.Sub, CoWFields),
		setOf("ReplicationCounts", (*ReplicationCounts).Add, ReplicationCounts.Sub, ReplicationFields),
	}
}

// fillDistinct sets field i of the struct behind p to base*(i+1), so
// every field holds a distinct nonzero value.
func fillDistinct(p any, base int64) {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(base * int64(i+1))
	}
}

// TestCounterSetsComplete guards the single definition of every counter
// set: Add and Sub must carry every field, and the field table — which
// the controller exports as metric series — must read every field
// exactly once. A counter added to a struct but missed in any of the
// three fails here.
func TestCounterSetsComplete(t *testing.T) {
	for _, cs := range counterSets() {
		t.Run(cs.name, func(t *testing.T) {
			a, b := cs.zero(), cs.zero()
			fillDistinct(a, 1)
			fillDistinct(b, 100)
			sum := cs.zero()
			cs.add(sum, a)
			cs.add(sum, b)
			for i := 0; i < reflect.ValueOf(sum).Elem().NumField(); i++ {
				got := reflect.ValueOf(sum).Elem().Field(i).Int()
				if want := 101 * int64(i+1); got != want {
					t.Errorf("Add dropped field %s: got %d, want %d",
						reflect.TypeOf(sum).Elem().Field(i).Name, got, want)
				}
			}
			if got := cs.sub(sum, b); !reflect.DeepEqual(got, reflect.ValueOf(a).Elem().Interface()) {
				t.Errorf("Add then Sub = %+v, want %+v", got, a)
			}

			// Every field holds a distinct value, so the table reads each
			// exactly once iff its values are a permutation of them.
			n := reflect.ValueOf(a).Elem().NumField()
			seen := make(map[int64]int)
			for _, v := range cs.fields(a) {
				seen[v]++
			}
			for i := 0; i < n; i++ {
				name := reflect.TypeOf(a).Elem().Field(i).Name
				if c := seen[int64(i+1)]; c != 1 {
					t.Errorf("field table reads %s %d times, want once", name, c)
				}
			}
			if got := len(cs.fields(a)); got != n {
				t.Errorf("field table has %d entries for %d fields", got, n)
			}
		})
	}
}

// TestSubClampsAtZero: a source destroyed between two snapshots must
// not produce negative counts.
func TestSubClampsAtZero(t *testing.T) {
	for _, cs := range counterSets() {
		small, big := cs.zero(), cs.zero()
		fillDistinct(small, 1)
		fillDistinct(big, 2)
		if got := cs.sub(small, big); !reflect.ValueOf(got).IsZero() {
			t.Errorf("%s: Sub of a larger snapshot = %+v, want zero", cs.name, got)
		}
	}
}

// TestTotalsAddCoversEverySet: Totals holds exactly the counter sets
// and its Add folds each of them in.
func TestTotalsAddCoversEverySet(t *testing.T) {
	var one Totals
	v := reflect.ValueOf(&one).Elem()
	if v.NumField() != len(counterSets()) {
		t.Fatalf("Totals has %d fields, want one per counter set (%d)", v.NumField(), len(counterSets()))
	}
	for i := 0; i < v.NumField(); i++ {
		fillDistinct(v.Field(i).Addr().Interface(), 1)
	}
	var sum Totals
	sum.Add(one)
	sum.Add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		for j := 0; j < s.Field(i).NumField(); j++ {
			if got := s.Field(i).Field(j).Int(); got != 2*int64(j+1) {
				t.Errorf("Totals.Add: %s.%s = %d, want %d", s.Type().Field(i).Name,
					s.Field(i).Type().Field(j).Name, got, 2*(j+1))
			}
		}
	}
}

// TestSummaryLines pins the report lines fleet reports and the
// single-VM CLI both print.
func TestSummaryLines(t *testing.T) {
	if got := (Totals{Hypercalls: Hypercalls{MapPage: 5}}).Summary("1"); got != "" {
		t.Fatalf("all modes off printed %q, want nothing", got)
	}
	tot := Totals{
		ScanCache: ScanCacheCounts{CacheHits: 132, CacheMisses: 57, CacheUnmaps: 9, CacheSwept: 72, MemoHits: 15, MemoMisses: 15},
		CoW:       CoWCounts{ArmedPages: 62, WriteFaults: 4, DrainPages: 39},
		Replication: ReplicationCounts{WireBytes: 1358, RawBytes: 254460,
			DeltaPages: 62, SamePages: 3, DupPages: 2, ZeroPages: 1, RawPages: 4},
	}
	want := "scan cache: hits=132 misses=57 (69.8% hit) unmaps=9 swept=72 memo=15/30 live=20/2048 pages\n" +
		"cow: armed=62 write_faults=4 drained=39\n" +
		"replication: wire=1358 raw=254460 (99.5% cut) pages raw=4 delta=62 same=3 dup=2 zero=1\n"
	if got := tot.Summary("20/2048"); got != want {
		t.Fatalf("Summary =\n%s\nwant\n%s", got, want)
	}
	// A set that did no work prints no line; a cache with no reads
	// reports a 0.0% hit rate rather than dividing by zero.
	only := Totals{ScanCache: ScanCacheCounts{CacheUnmaps: 3}}
	if got, want := only.Summary("60"), "scan cache: hits=0 misses=0 (0.0% hit) unmaps=3 swept=0 memo=0/0 live=60 pages\n"; got != want {
		t.Fatalf("Summary = %q, want %q", got, want)
	}
}
