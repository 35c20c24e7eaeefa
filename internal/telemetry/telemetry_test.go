package telemetry

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile")
	}
	for _, v := range []int64{10, 20, 30} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Min() != 10 || h.Max() != 30 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	if math.Abs(h.Mean()-20) > 1e-9 {
		t.Fatalf("mean %v", h.Mean())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	r := rand.New(rand.NewSource(3))
	vals := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(r.ExpFloat64() * 1e6) // exponential, mean 1 ms
		if v < 1 {
			v = 1
		}
		vals = append(vals, v)
		h.Observe(v)
	}
	exact := func(q float64) int64 {
		sorted := append([]int64(nil), vals...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		idx := int(q*float64(len(sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		return sorted[idx]
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.Quantile(q), exact(q)
		rel := math.Abs(float64(got-want)) / float64(want)
		if rel > 0.10 {
			t.Fatalf("q%.2f: got %d want %d (rel err %.3f)", q, got, want, rel)
		}
	}
}

func TestHistogramQuantileMonotoneQuick(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Observe(int64(v % 1e9))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			if cur < h.Min() || cur > h.Max() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramZeroAndClamp(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(0)
	if h.Quantile(0.5) != 0 {
		t.Fatalf("all-zero histogram p50 = %d", h.Quantile(0.5))
	}
	if h.Quantile(-1) != 0 || h.Quantile(2) != 0 {
		t.Fatal("out-of-range q must clamp")
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	if h.String() != "n=0" {
		t.Fatalf("empty string %q", h.String())
	}
	h.ObserveDuration(time.Millisecond)
	if !strings.Contains(h.String(), "n=1") {
		t.Fatalf("string %q", h.String())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("experiment", "rate")
	tb.Row("DUNE", 120.0)
	tb.Row("Mu2e", 0.16)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "experiment") {
		t.Fatalf("header line %q", lines[0])
	}
	if !strings.Contains(lines[2], "DUNE") || !strings.Contains(lines[2], "120") {
		t.Fatalf("row %q", lines[2])
	}
}
