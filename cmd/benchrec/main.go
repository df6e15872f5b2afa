// Command benchrec turns benchmark output into one row of
// BENCH_trajectory.json's "runs" array: the label, the date, the
// machine's CPU count, the GOMAXPROCS values the benchmarks ran at, the
// Go version, and per benchmark the median ns/op, B/op and allocs/op
// over its samples (-count).
//
// Usage:
//
//	go test -run xxx -bench ColdPods -benchmem -cpu 1,2 -count 5 -json . |
//	    go run ./cmd/benchrec -label "what changed" [-notes "..."]
//
// It reads `go test -json` events from standard input. Benchmark names
// are kept as go test prints them, so a -N suffix marks a run at
// GOMAXPROCS N (none at 1). Run it on the machine that ran the
// benchmarks: nproc and the Go version are read from the running
// process.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
}

// row is one entry of BENCH_trajectory.json's runs array.
type row struct {
	Label      string            `json:"label"`
	Date       string            `json:"date"`
	Nproc      int               `json:"nproc"`
	GOMAXPROCS []int             `json:"gomaxprocs"`
	Go         string            `json:"go"`
	Benchmarks map[string]result `json:"benchmarks"`
	Notes      string            `json:"notes,omitempty"`
}

// result is one benchmark's medians.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func run(args []string, in io.Reader, out io.Writer) error {
	fl := flag.NewFlagSet("benchrec", flag.ContinueOnError)
	label := fl.String("label", "", "what the row measures (required)")
	notes := fl.String("notes", "", "free-text notes stored with the row")
	date := fl.String("date", time.Now().UTC().Format("2006-01-02"), "date of the row")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *label == "" {
		return fmt.Errorf("-label is required")
	}
	text, err := benchText(in)
	if err != nil {
		return err
	}
	samples, procs, order := parse(text)
	if len(order) == 0 {
		return fmt.Errorf("no benchmark results in the input")
	}
	r := row{
		Label: *label, Date: *date, Nproc: runtime.NumCPU(), GOMAXPROCS: procs,
		Go: runtime.Version(), Benchmarks: make(map[string]result), Notes: *notes,
	}
	for _, name := range order {
		r.Benchmarks[name] = medians(samples[name])
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// benchText returns the test output the input carries: the Output
// fields of `go test -json` events, concatenated per package (go test
// splits one result line across several events).
func benchText(in io.Reader) (string, error) {
	perPkg := make(map[string]*strings.Builder)
	var pkgs []string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var ev struct {
			Action, Package, Output string
		}
		if json.Unmarshal([]byte(line), &ev) != nil || ev.Action != "output" {
			continue
		}
		b := perPkg[ev.Package]
		if b == nil {
			b = new(strings.Builder)
			perPkg[ev.Package] = b
			pkgs = append(pkgs, ev.Package)
		}
		b.WriteString(ev.Output)
	}
	var all strings.Builder
	for _, p := range pkgs {
		all.WriteString(perPkg[p].String())
	}
	return all.String(), sc.Err()
}

// sample is one benchmark result line.
type sample struct {
	ns            float64
	bytes, allocs int64
}

// parse collects the result lines of text per benchmark name, with the
// sorted GOMAXPROCS values seen and the names in first-seen order.
func parse(text string) (map[string][]sample, []int, []string) {
	samples := make(map[string][]sample)
	var order []string
	var procs []int
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // a name line without results
		}
		var s sample
		ok := false
		for k := 2; k+1 < len(f); k += 2 {
			v, err := strconv.ParseFloat(f[k], 64)
			if err != nil {
				break
			}
			switch f[k+1] {
			case "ns/op":
				s.ns, ok = v, true
			case "B/op":
				s.bytes = int64(v)
			case "allocs/op":
				s.allocs = int64(v)
			}
		}
		if !ok {
			continue
		}
		name := f[0]
		p := 1
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				p = n
			}
		}
		if !slices.Contains(procs, p) {
			procs = append(procs, p)
		}
		if _, seen := samples[name]; !seen {
			order = append(order, name)
		}
		samples[name] = append(samples[name], s)
	}
	slices.Sort(procs)
	return samples, procs, order
}

// medians returns the per-metric medians of a benchmark's samples.
func medians(ss []sample) result {
	ns := make([]float64, len(ss))
	bytes := make([]float64, len(ss))
	allocs := make([]float64, len(ss))
	for k, s := range ss {
		ns[k], bytes[k], allocs[k] = s.ns, float64(s.bytes), float64(s.allocs)
	}
	return result{NsPerOp: median(ns), BytesPerOp: int64(median(bytes)), AllocsPerOp: int64(median(allocs))}
}

func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
