package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestRowFromJSONEvents: result lines split across events are joined
// per package, samples reduce to medians, the -N suffix yields the
// GOMAXPROCS list, and lines that are not JSON events are ignored.
func TestRowFromJSONEvents(t *testing.T) {
	in := strings.Join([]string{
		`{"Action":"start","Package":"p"}`,
		`{"Action":"output","Package":"p","Output":"goos: linux\n"}`,
		`{"Action":"output","Package":"p","Test":"BenchmarkA/x","Output":"BenchmarkA/x\n"}`,
		`{"Action":"output","Package":"p","Test":"BenchmarkA/x","Output":"BenchmarkA/x         \t"}`,
		`{"Action":"output","Package":"q","Output":"BenchmarkB-2 \t 10\t 500 ns/op\n"}`,
		`{"Action":"output","Package":"p","Test":"BenchmarkA/x","Output":"  3\t 100 ns/op\t 64 B/op\t 2 allocs/op\n"}`,
		`{"Action":"output","Package":"p","Test":"BenchmarkA/x","Output":"BenchmarkA/x  \t 3\t 300 ns/op\t 32 B/op\t 1 allocs/op\n"}`,
		`{"Action":"output","Package":"p","Test":"BenchmarkA/x","Output":"BenchmarkA/x  \t 3\t 200 ns/op\t 48 B/op\t 4 allocs/op\n"}`,
		`{"Action":"output","Package":"q","Output":"BenchmarkC-8   1   7 ns/op\n"}`,
		`not a JSON event`,
		`{"Action":"pass","Package":"p"}`,
	}, "\n")
	var out strings.Builder
	if err := run([]string{"-label", "l", "-date", "2026-01-02", "-notes", "n"}, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	var got row
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatalf("%v in\n%s", err, out.String())
	}
	want := map[string]result{
		"BenchmarkA/x": {NsPerOp: 200, BytesPerOp: 48, AllocsPerOp: 2},
		"BenchmarkB-2": {NsPerOp: 500},
		"BenchmarkC-8": {NsPerOp: 7},
	}
	if !reflect.DeepEqual(got.Benchmarks, want) {
		t.Errorf("benchmarks %+v, want %+v", got.Benchmarks, want)
	}
	if !reflect.DeepEqual(got.GOMAXPROCS, []int{1, 2, 8}) {
		t.Errorf("gomaxprocs %v, want [1 2 8]", got.GOMAXPROCS)
	}
	if got.Label != "l" || got.Date != "2026-01-02" || got.Notes != "n" || got.Nproc < 1 || !strings.HasPrefix(got.Go, "go") {
		t.Errorf("row header %+v", got)
	}
}

// TestNoResults: input without benchmark results is an error, not an
// empty row.
func TestNoResults(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-label", "l"}, strings.NewReader(`{"Action":"output","Package":"p","Output":"PASS\n"}`), &out); err == nil {
		t.Fatalf("no error; printed %s", out.String())
	}
	if err := run(nil, strings.NewReader(""), &out); err == nil || !strings.Contains(err.Error(), "-label") {
		t.Fatalf("missing -label not reported: %v", err)
	}
}
