package main

import (
	"strings"
	"testing"
)

func TestTrimodelAllEvaluators(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-method", "T1", "-order", "descending",
		"-alpha", "1.5", "-n", "1e4", "-trunc", "linear", "-eval", "all",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// Paper Table 5 at n=1e4: (50) = 241.15, (49) = 245.29 (4-decimal
	// output prints 241.1452 / 245.2834).
	if !strings.Contains(s, "241.14") {
		t.Errorf("discrete value missing/wrong:\n%s", s)
	}
	if !strings.Contains(s, "245.2") {
		t.Errorf("continuous value missing/wrong:\n%s", s)
	}
	if !strings.Contains(s, "finite limit iff α > 1.333") {
		t.Errorf("finiteness threshold missing:\n%s", s)
	}
	if !strings.Contains(s, "356.2") {
		t.Errorf("limit missing/wrong:\n%s", s)
	}
}

func TestTrimodelQuickOnly(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-eval", "quick", "-alpha", "1.5", "-n", "1e10"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "355.7") {
		t.Errorf("Algorithm 2 at n=1e10 should print ≈355.79:\n%s", out.String())
	}
	if strings.Contains(out.String(), "continuous") {
		t.Error("continuous computed despite -eval quick")
	}
}

func TestTrimodelDiscreteSkippedWhenHuge(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-eval", "discrete", "-alpha", "1.5", "-n", "1e12"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "skipped") {
		t.Errorf("huge t_n should skip the exact sum:\n%s", out.String())
	}
}

func TestTrimodelRootTruncation(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-trunc", "root", "-n", "1e6", "-eval", "discrete"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "t_n=1000") {
		t.Errorf("root truncation of 1e6 should be t_n=√n=1000:\n%s", out.String())
	}
}

func TestTrimodelErrors(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-method", "X9"},
		{"-order", "sideways"},
		{"-trunc", "none"},
		{"-alpha", "0.8"}, // default beta needs alpha > 1
		{"-alpha", "-1", "-beta", "5"},
		// Degenerate order has no model, under any spelling.
		{"-order", "degenerate"},
		{"-order", "smallest-last"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	if err := run([]string{"-order", "uniform", "-eval", "discrete", "-n", "1e3"}, &out); err != nil {
		t.Errorf("uniform order rejected: %v", err)
	}
}

// TestTrimodelOrderAliases: trimodel takes the order spellings trilist
// and trid take, and an alias prices the same spec as its full name.
func TestTrimodelOrderAliases(t *testing.T) {
	specLine := func(order string) string {
		t.Helper()
		var out strings.Builder
		if err := run([]string{"-order", order, "-eval", "discrete", "-n", "1e3"}, &out); err != nil {
			t.Fatalf("-order %s: %v", order, err)
		}
		return strings.SplitN(out.String(), "\n", 2)[0]
	}
	for full, aliases := range map[string][]string{
		"ascending":                 {"asc", "a", "ASC"},
		"descending":                {"desc", "d"},
		"round-robin":               {"roundrobin", "rr"},
		"complementary-round-robin": {"crr"},
		"uniform":                   {"random", "u"},
	} {
		want := specLine(full)
		for _, a := range aliases {
			if got := specLine(a); got != want {
				t.Errorf("-order %s: %q, want %q", a, got, want)
			}
		}
	}
}

func TestTrimodelWorkerDeterminism(t *testing.T) {
	// Concurrent evaluation must not change any value or the print order;
	// only the timing suffixes may differ between runs.
	stripTimes := func(s string) string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if i := strings.LastIndex(line, "("); i >= 0 && strings.HasSuffix(line, ")") {
				line = strings.TrimRight(line[:i], " ")
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	var want string
	for _, workers := range []string{"1", "4"} {
		var out strings.Builder
		err := run([]string{"-n", "1e5", "-eval", "all", "-workers", workers}, &out)
		if err != nil {
			t.Fatal(err)
		}
		got := stripTimes(out.String())
		if want == "" {
			want = got
			if !strings.Contains(want, "discrete") || !strings.Contains(want, "limit") {
				t.Fatalf("output incomplete:\n%s", want)
			}
		} else if got != want {
			t.Errorf("-workers %s output differs:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}
