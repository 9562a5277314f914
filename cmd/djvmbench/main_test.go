package main

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"jessica2/internal/experiments"
	"jessica2/internal/runner"
)

// claim is a test-local figure result: fixed text plus the violations its
// assertion reports.
type claim struct {
	text       string
	violations []string
}

func (c claim) String() string       { return c.text }
func (c claim) Violations() []string { return c.violations }

// plain is a test-local figure result without an assertion.
type plain string

func (p plain) String() string { return string(p) }

// testRegistry stands in for experiments.Figures; the FigBad entry's claim
// always fails.
var testRegistry = []experiments.Figure{
	{Name: "Table1", Title: "Table I", Run: func(experiments.Scale, *runner.Pool) fmt.Stringer { return plain("t1") }},
	{Name: "Fig9", Title: "Figure 9", Run: func(experiments.Scale, *runner.Pool) fmt.Stringer { return plain("f9") }},
	{Name: "FigOK", Title: "Figure OK", Run: func(experiments.Scale, *runner.Pool) fmt.Stringer { return claim{text: "ok"} }},
	{Name: "FigBad", Title: "Figure Bad", Run: func(experiments.Scale, *runner.Pool) fmt.Stringer {
		return claim{text: "bad", violations: []string{"first claim", "second claim"}}
	}},
}

func parse(t *testing.T, args ...string) (*benchConfig, error) {
	t.Helper()
	return parseArgs(args, testRegistry, io.Discard)
}

func names(figs []experiments.Figure) []string {
	var out []string
	for _, f := range figs {
		out = append(out, f.Name)
	}
	return out
}

func TestParseFigAll(t *testing.T) {
	bc, err := parse(t, "-fig", "all")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(bc.figs), names(testRegistry); !reflect.DeepEqual(got, want) {
		t.Fatalf("-fig all selected %v, want %v", got, want)
	}
}

func TestParseFigListKeepsRegistryOrder(t *testing.T) {
	bc, err := parse(t, "-fig", "FigBad,Table1,Fig9,Table1")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(bc.figs), []string{"Table1", "Fig9", "FigBad"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selected %v, want %v", got, want)
	}
}

func TestParseFigIgnoresCase(t *testing.T) {
	bc, err := parse(t, "-fig", "table1, FIG9")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(bc.figs), []string{"Table1", "Fig9"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selected %v, want %v", got, want)
	}
	if bc, err = parse(t, "-fig", "ALL"); err != nil || len(bc.figs) != len(testRegistry) {
		t.Fatalf("-fig ALL: %v figures, err %v", len(bc.figs), err)
	}
}

func TestParseRejections(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown figure":       {"-fig", "5"},
		"unknown in list":      {"-fig", "Table1,Table7"},
		"empty list item":      {"-fig", "Table1,"},
		"removed -table flag":  {"-table", "7"},
		"removed -all flag":    {"-all"},
		"nothing selected":     {},
		"zero scale":           {"-fig", "all", "-scale", "0"},
		"negative parallelism": {"-fig", "all", "-parallel", "-1"},
		"stray argument":       {"-fig", "all", "Table2"},
	} {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("%s (%v): accepted", name, args)
		}
	}
}

// TestUnknownFigureListsValidNames: the error names the bad figure and
// every valid one, so a typo is fixable from the message alone.
func TestUnknownFigureListsValidNames(t *testing.T) {
	_, err := parseArgs([]string{"-fig", "5"}, experiments.Figures, io.Discard)
	if err == nil {
		t.Fatal("-fig 5 accepted")
	}
	for _, want := range append([]string{`"5"`, "all"}, names(experiments.Figures)...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// TestRegistryOrder pins the real registry: the names the benchmark
// reports and scripts use, in the order -fig all regenerates them.
func TestRegistryOrder(t *testing.T) {
	want := []string{"Table1", "Table2", "Table3", "Table4", "Table5",
		"Fig9", "Fig1", "FigS", "FigCL", "FigR", "FigT", "FigG", "FigW"}
	if got := names(experiments.Figures); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry %v, want %v", got, want)
	}
}

func TestExecuteRendersInOrder(t *testing.T) {
	bc, err := parse(t, "-fig", "FigOK,Table1", "-scale", "8")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := bc.execute(&out, &errOut); err != nil {
		t.Fatalf("execute: %v\n%s", err, errOut.String())
	}
	got := out.String()
	i, j := strings.Index(got, "== Table I (scale 1/8) ==\nt1\n"), strings.Index(got, "== Figure OK (scale 1/8) ==\nok\n")
	if i < 0 || j < i {
		t.Fatalf("output out of order or incomplete:\n%s", got)
	}
	if errOut.Len() != 0 {
		t.Fatalf("unexpected stderr: %s", errOut.String())
	}
}

// TestExecuteViolationsFail: a figure whose claims fail makes the run fail,
// reports every violation, and does not stop the figures after it.
func TestExecuteViolationsFail(t *testing.T) {
	bc, err := parse(t, "-fig", "all")
	if err != nil {
		t.Fatal(err)
	}
	// Put the failing figure first so the run must continue past it.
	bc.figs = []experiments.Figure{testRegistry[3], testRegistry[0]}
	var out, errOut bytes.Buffer
	if err := bc.execute(&out, &errOut); err == nil {
		t.Fatal("violations did not fail the run")
	}
	for _, want := range []string{"FigBad violation: first claim", "FigBad violation: second claim"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr %q missing %q", errOut.String(), want)
		}
	}
	if !strings.Contains(out.String(), "== Table I") {
		t.Fatalf("figures after the failing one did not run:\n%s", out.String())
	}
}
