package main

import "testing"

// TestVerdict covers the three outcomes of a comparison row and both
// directions.
func TestVerdict(t *testing.T) {
	steady := []float64{98, 99, 100, 101, 102}
	wide := []float64{60, 80, 100, 120, 140} // spread 0.8
	for _, c := range []struct {
		name          string
		before, after []float64
		better        string
		want          string
	}{
		{"within bound", steady, []float64{105, 106, 107, 108, 109}, "lower", verdictOK},
		{"worse beyond bound", steady, []float64{125, 126, 127, 128, 129}, "lower", verdictRegressed},
		{"higher is better", steady, []float64{75, 76, 77, 78, 79}, "higher", verdictRegressed},
		{"old runs spread wider than the bound", wide, steady, "lower", verdictUnresolved},
		{"every new run beats every old run", wide, []float64{50, 51, 52, 53, 54}, "lower", verdictOK},
	} {
		if got := verdict(c.before, c.after, c.better, 0.2); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
