package main

import "testing"

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: percentile must sort a copy
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {90, 90}, {1, 1}} {
		q, err := percentile(xs, c.p)
		if err != nil {
			t.Fatalf("p%g: %v", c.p, err)
		}
		if q.Value != c.want || q.Samples != 100 {
			t.Errorf("p%g = %v over %d samples, want %v over 100", c.p, q.Value, q.Samples, c.want)
		}
	}
	if xs[0] != 100 {
		t.Errorf("percentile reordered its input")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 109) // p90 rank 99: 10 beyond
	if _, err := percentile(xs, 90); err != nil {
		t.Errorf("109 samples: %v", err)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Errorf("99 samples (9 beyond p90): want an error")
	}
	if q, err := percentile(xs[:1], 50); err != nil || q.Samples != 1 {
		t.Errorf("median of one sample: %v, %v", q, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Errorf("empty sample: want an error")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}
