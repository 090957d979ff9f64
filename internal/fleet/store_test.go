package fleet

import (
	"testing"
)

func TestStoreAppendStampsSequences(t *testing.T) {
	s := NewStore("a:1")
	r1, ok := s.Append("wc", "n1", "cpu-hog", "0110")
	if !ok || r1.Origin != "a:1" || r1.Seq != 1 {
		t.Fatalf("first append = %+v, %v", r1, ok)
	}
	r2, ok := s.Append("wc", "n1", "mem-hog", "1001")
	if !ok || r2.Seq != 2 {
		t.Fatalf("second append = %+v, %v", r2, ok)
	}
	// A malformed tuple is refused rather than issued.
	if _, ok := s.Append("wc", "n1", "bad", "01x"); ok {
		t.Error("malformed tuple issued")
	}
	if got := s.Vector()["a:1"]; got != 2 {
		t.Errorf("self clock = %d, want 2", got)
	}
}

func TestStoreMissingAndApplyConverge(t *testing.T) {
	a, b := NewStore("a:1"), NewStore("b:1")
	a.Append("wc", "n1", "cpu-hog", "0110")
	a.Append("wc", "n1", "mem-hog", "1001")
	b.Append("sort", "n2", "disk-hog", "0011")

	// b pulls from a.
	delta := a.Missing(b.Vector())
	if len(delta) != 2 {
		t.Fatalf("a->b delta = %d records, want 2", len(delta))
	}
	if fresh := b.Apply(delta); len(fresh) != 2 {
		t.Fatalf("apply = %d fresh, want 2", len(fresh))
	}
	// a pulls from b.
	fresh := a.Apply(b.Missing(a.Vector()))
	if len(fresh) != 1 {
		t.Fatalf("b->a apply = %d fresh, want 1", len(fresh))
	}
	// Converged: neither side is missing anything.
	if n := len(a.Missing(b.Vector())); n != 0 {
		t.Errorf("a still has %d records for b", n)
	}
	if n := len(b.Missing(a.Vector())); n != 0 {
		t.Errorf("b still has %d records for a", n)
	}
	// Re-applying an old delta is a no-op (idempotence).
	if fresh := b.Apply(delta); len(fresh) != 0 {
		t.Errorf("re-apply = %d fresh, want 0", len(fresh))
	}
}

func TestStoreApplyKeepsContentFromEveryOrigin(t *testing.T) {
	// Two peers independently label the same fault: both records enter the
	// log and go to the installer (their clocks must advance; merging the
	// content is the signature database's job).
	c := NewStore("c:1")
	fresh := c.Apply([]Record{
		{Origin: "a:1", Seq: 1, Workload: "wc", Node: "n1", Problem: "cpu-hog", Tuple: "0110"},
		{Origin: "b:1", Seq: 1, Workload: "wc", Node: "n1", Problem: "cpu-hog", Tuple: "0110"},
	})
	if len(fresh) != 2 {
		t.Fatalf("apply = %d fresh, want 2", len(fresh))
	}
	if c.Len() != 2 {
		t.Errorf("log length %d, want 2 (clock-bearing duplicates stay diffable)", c.Len())
	}
	// Both gossip onward: a third peer's empty vector gets both records.
	if n := len(c.Missing(Vector{})); n != 2 {
		t.Errorf("onward delta = %d records, want 2", n)
	}
}

func TestStoreApplySkipsDamage(t *testing.T) {
	s := NewStore("s:1")
	fresh := s.Apply([]Record{
		{Origin: "", Seq: 1, Workload: "wc", Node: "n1", Problem: "p", Tuple: "01"},
		{Origin: "a:1", Seq: 0, Workload: "wc", Node: "n1", Problem: "p", Tuple: "01"},
		{Origin: "a:1", Seq: 1, Workload: "wc", Node: "n1", Problem: "p", Tuple: "0x"},
	})
	if len(fresh) != 0 {
		t.Errorf("damaged records applied: %d fresh", len(fresh))
	}
	// The malformed-tuple record must not have advanced the clock, or the
	// well-formed record under the same (origin, seq) could never apply.
	if got := s.Vector()["a:1"]; got != 0 {
		t.Errorf("clock advanced to %d by a malformed record", got)
	}
}

func TestStorePersistRoundTrip(t *testing.T) {
	a := NewStore("a:1")
	a.Append("wc", "n1", "cpu-hog", "0110")
	a.Apply([]Record{{Origin: "b:1", Seq: 3, Workload: "sort", Node: "n2", Problem: "disk-hog", Tuple: "0011"}})

	f := a.file()
	if err := f.validate(); err != nil {
		t.Fatal(err)
	}
	r := NewStore("a:1")
	if r.restore(&f); r.Len() != 2 {
		t.Fatalf("restore yielded %d records, want 2", r.Len())
	}
	// The restored clock resumes: nothing re-fetches, sequences continue.
	if got, want := r.Vector()["b:1"], uint64(3); got != want {
		t.Errorf("restored remote clock = %d, want %d", got, want)
	}
	if rec, ok := r.Append("wc", "n1", "new-fault", "1111"); !ok || rec.Seq != 2 {
		t.Errorf("post-restore append = %+v, %v; want seq 2", rec, ok)
	}
	if n := len(r.Missing(a.Vector())); n != 1 {
		t.Errorf("restored store offers %d records to its old self, want 1 (the new one)", n)
	}
}
