package cli

import (
	"slices"
	"testing"

	"hrwle/internal/harness"
)

func TestParseSchemes(t *testing.T) {
	def := []string{"SGL"}
	for _, tc := range []struct {
		in    string
		extra []string
		want  []string
	}{
		{"", nil, def},
		{"HLE, SGL", nil, []string{"HLE", "SGL"}},
		{"adaptive,SGL", []string{"adaptive"}, []string{"adaptive", "SGL"}},
		{"all", nil, harness.AllSchemes()},
		{"all", []string{"adaptive"}, append([]string{"adaptive"}, harness.AllSchemes()...)},
	} {
		got, err := ParseSchemes(tc.in, def, tc.extra...)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("ParseSchemes(%q, %v) = %v, %v; want %v", tc.in, tc.extra, got, err, tc.want)
		}
	}
	for _, bad := range []string{"FOO", "SGL,", "adaptive"} {
		if got, err := ParseSchemes(bad, def); err == nil {
			t.Errorf("ParseSchemes(%q) = %v, want an error", bad, got)
		}
	}
}

func TestParseListsAreStrict(t *testing.T) {
	if got, err := ParseInts("2, 8"); err != nil || !slices.Equal(got, []int{2, 8}) {
		t.Errorf("ParseInts(\"2, 8\") = %v, %v", got, err)
	}
	for _, bad := range []string{"", "abc", "2,x8", "0", "-4", "2,,8"} {
		if got, err := ParseInts(bad); err == nil {
			t.Errorf("ParseInts(%q) = %v, want an error", bad, got)
		}
	}
	if got, err := ParseRates("3e6, 1e-9"); err != nil || !slices.Equal(got, []float64{3e6, 1e-9}) {
		t.Errorf("ParseRates(\"3e6, 1e-9\") = %v, %v", got, err)
	}
	for _, bad := range []string{"0", "-1", "nan", "inf", "+Inf", "3e6,infinity", "1e-300"} {
		if got, err := ParseRates(bad); err == nil {
			t.Errorf("ParseRates(%q) = %v, want an error", bad, got)
		}
	}
	if got, err := ParseSkews("0,1.2"); err != nil || !slices.Equal(got, []float64{0, 1.2}) {
		t.Errorf("ParseSkews(\"0,1.2\") = %v, %v", got, err)
	}
	for _, bad := range []string{"-1", "nan", "inf", "+Inf", "0,infinity"} {
		if got, err := ParseSkews(bad); err == nil {
			t.Errorf("ParseSkews(%q) = %v, want an error", bad, got)
		}
	}
}
