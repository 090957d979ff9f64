package metrics

import "testing"

func TestNamesAndIndex(t *testing.T) {
	if Count != 26 {
		t.Errorf("Count = %d, want the paper's 26 metrics", Count)
	}
	if len(Names) != Count {
		t.Fatalf("len(Names) = %d, want %d", len(Names), Count)
	}
	seen := map[string]bool{}
	for i, n := range Names {
		if seen[n] {
			t.Errorf("duplicate metric name %q", n)
		}
		seen[n] = true
		if Index(n) != i {
			t.Errorf("Index(%q) = %d, want %d", n, Index(n), i)
		}
	}
	if Index("nosuch") != -1 {
		t.Error("Index of unknown metric should be -1")
	}
}

func TestTraceSlice(t *testing.T) {
	tr := NewTrace("10.0.0.2", "wordcount")
	for tick := 0; tick < 20; tick++ {
		if err := tr.Add(fullVector(float64(tick)), float64(tick)); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := tr.Slice(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 5 || len(sub.CPI) != 5 {
		t.Errorf("slice len = %d/%d", sub.Len(), len(sub.CPI))
	}
	if sub.Rows[0][0] != tr.Rows[0][5] || sub.CPI[4] != tr.CPI[9] {
		t.Error("slice misaligned")
	}
	if _, err := tr.Slice(10, 5); err == nil {
		t.Error("inverted slice should error")
	}
	if _, err := tr.Slice(0, tr.Len()+1); err == nil {
		t.Error("overlong slice should error")
	}
}

func TestTraceAddValidatesWidth(t *testing.T) {
	tr := NewTrace("10.0.0.2", "sort")
	if err := tr.Add(make([]float64, 3), 1.0); err == nil {
		t.Error("short sample should error")
	}
	if err := tr.Add(make([]float64, Count), 1.0); err != nil {
		t.Errorf("valid sample errored: %v", err)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

// Index returns the position of a metric name, or -1.
func Index(name string) int {
	for i, n := range Names {
		if n == name {
			return i
		}
	}
	return -1
}
