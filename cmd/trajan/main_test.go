package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	code, err := run(args, &b)
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if code != 0 && code != 1 {
		t.Fatalf("run(%v): exit code %d without error", args, code)
	}
	return b.String()
}

// TestDefaultAnalysesPaperExample: with no flags the tool analyses the
// paper example under all three concrete backends.
func TestDefaultAnalysesPaperExample(t *testing.T) {
	out := runCLI(t)
	for _, want := range []string{"tau1", "trajectory", "holistic", "netcalc", "31", "43"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestMethodFilter: -backend trajectory omits the baselines.
func TestMethodFilter(t *testing.T) {
	out := runCLI(t, "-backend", "trajectory")
	if strings.Contains(out, "holistic") || strings.Contains(out, "netcalc") {
		t.Errorf("baselines leaked into filtered output:\n%s", out)
	}
}

// TestDetailFlag prints the interference breakdown.
func TestDetailFlag(t *testing.T) {
	out := runCLI(t, "-detail", "-backend", "trajectory")
	for _, want := range []string{"Bslow=", "packets=", "direction"} {
		if !strings.Contains(out, want) {
			t.Errorf("detail output missing %q:\n%s", want, out)
		}
	}
}

// TestEFFlag runs Property 3 over a mixed-class config file.
func TestEFFlag(t *testing.T) {
	cfg := `{"network":{"lmin":1,"lmax":1},"flows":[
	  {"name":"voice","period":40,"deadline":60,"path":[1,2,3],"cost":2},
	  {"name":"bulk","period":30,"class":"BE","path":[1,2,3],"cost":9}
	]}`
	path := filepath.Join(t.TempDir(), "flows.json")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "-config", path, "-ef")
	if !strings.Contains(out, "voice") || !strings.Contains(out, "delta") {
		t.Errorf("EF output:\n%s", out)
	}
	if strings.Contains(out, "bulk") {
		t.Errorf("non-EF flow listed in EF verdicts:\n%s", out)
	}
}

// TestSensitivityFlag prints headroom per flow.
func TestSensitivityFlag(t *testing.T) {
	out := runCLI(t, "-backend", "trajectory", "-sensitivity")
	if !strings.Contains(out, "min period") || !strings.Contains(out, "cost headroom") {
		t.Errorf("sensitivity output:\n%s", out)
	}
}

// TestSmaxModes: all three estimators run; bogus ones error.
func TestSmaxModes(t *testing.T) {
	for _, m := range []string{"prefix", "tail", "noqueue"} {
		runCLI(t, "-backend", "trajectory", "-smax", m)
	}
	var b strings.Builder
	code, err := run([]string{"-smax", "bogus"}, &b)
	if err == nil {
		t.Error("bogus smax mode accepted")
	}
	if code != 2 {
		t.Errorf("bogus smax mode: exit code %d, want 2", code)
	}
}

// TestBadConfigErrors: unreadable and invalid configs are reported.
func TestBadConfigErrors(t *testing.T) {
	var b strings.Builder
	code, err := run([]string{"-config", "/nonexistent.json"}, &b)
	if err == nil {
		t.Error("missing config accepted")
	}
	if code != 2 {
		t.Errorf("missing config: exit code %d, want 2", code)
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, err = run([]string{"-config", path}, &b)
	if err == nil {
		t.Error("broken config accepted")
	}
	if code != 2 {
		t.Errorf("broken config: exit code %d, want 2", code)
	}
}

// TestSplitConfigReportsChainedBounds: a config whose flows violate
// Assumption 1 is split, and the trajectory rows report the ORIGINAL
// flows with jitter-chained bounds.
func TestSplitConfigReportsChainedBounds(t *testing.T) {
	cfg := `{"network":{"lmin":1,"lmax":1},"flows":[
	  {"name":"base","period":40,"deadline":100,"path":[1,2,3,4,5],"cost":3},
	  {"name":"weave","period":40,"deadline":100,"path":[2,3,9,4,5],"cost":3}
	]}`
	path := filepath.Join(t.TempDir(), "flows.json")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "-config", path, "-backend", "trajectory")
	if !strings.Contains(out, "weave") || strings.Contains(out, "weave~") {
		t.Errorf("original flow names expected, fragments leaked:\n%s", out)
	}
	if !strings.Contains(out, "trajectory*") || !strings.Contains(out, "split") {
		t.Errorf("split notice missing:\n%s", out)
	}
}

// TestExplainFlag prints the derivation for one flow.
func TestExplainFlag(t *testing.T) {
	out := runCLI(t, "-backend", "trajectory", "-explain", "tau2")
	for _, want := range []string{"R(tau2) = 37", "Bslow=16", "W(t*)"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	var b strings.Builder
	code, err := run([]string{"-backend", "trajectory", "-explain", "nope"}, &b)
	if err == nil {
		t.Error("unknown flow accepted")
	}
	if code != 2 {
		t.Errorf("unknown flow: exit code %d, want 2", code)
	}
}

// TestExitCodes pins the documented exit-code contract: 0 feasible,
// 1 infeasible, 2 invalid config, 3 no-verdict (unstable/overflow/
// timeout), 4 internal.
func TestExitCodes(t *testing.T) {
	writeCfg := func(t *testing.T, cfg string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "flows.json")
		if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("feasible", func(t *testing.T) {
		var b strings.Builder
		code, err := run([]string{"-backend", "trajectory"}, &b)
		if err != nil || code != 0 {
			t.Errorf("paper example: code %d err %v, want 0 <nil>", code, err)
		}
	})

	t.Run("infeasible", func(t *testing.T) {
		path := writeCfg(t, `{"network":{"lmin":1,"lmax":1},"flows":[
		  {"name":"tight","period":40,"deadline":3,"path":[1,2,3],"cost":2},
		  {"name":"rival","period":40,"deadline":100,"path":[1,2,3],"cost":2}
		]}`)
		var b strings.Builder
		code, err := run([]string{"-config", path, "-backend", "trajectory"}, &b)
		if err != nil || code != 1 {
			t.Errorf("deadline miss: code %d err %v, want 1 <nil>", code, err)
		}
	})

	t.Run("infeasible verdict follows trajectory under -backend all", func(t *testing.T) {
		// Holistic pessimism alone must not flip the exit verdict.
		path := writeCfg(t, `{"network":{"lmin":1,"lmax":1},"flows":[
		  {"name":"tight","period":40,"deadline":3,"path":[1,2,3],"cost":2},
		  {"name":"rival","period":40,"deadline":100,"path":[1,2,3],"cost":2}
		]}`)
		var b strings.Builder
		code, err := run([]string{"-config", path, "-backend", "all"}, &b)
		if err != nil || code != 1 {
			t.Errorf("deadline miss (all backends): code %d err %v, want 1 <nil>", code, err)
		}
	})

	t.Run("unstable", func(t *testing.T) {
		// Utilization 2 at the shared node: the busy period diverges.
		path := writeCfg(t, `{"network":{"lmin":1,"lmax":1},"flows":[
		  {"name":"hog","period":10,"deadline":100,"path":[1,2,3],"cost":10},
		  {"name":"hog2","period":10,"deadline":100,"path":[1,2,3],"cost":10}
		]}`)
		var b strings.Builder
		code, err := run([]string{"-config", path, "-backend", "trajectory"}, &b)
		if err == nil {
			t.Fatal("overloaded set accepted")
		}
		if code != 3 {
			t.Errorf("overloaded set: exit code %d, want 3 (%v)", code, err)
		}
	})

	t.Run("pathological testdata", func(t *testing.T) {
		for _, tc := range []struct {
			file string
			want int
		}{
			// At the default horizon the huge-parameter set is cut off
			// by the divergence guard; the overloaded set diverges; the
			// out-of-domain set never reaches the analysis.
			{"../../testdata/pathological_overflow.json", 3},
			{"../../testdata/pathological_overload.json", 3},
			{"../../testdata/pathological_rejected.json", 2},
		} {
			var b strings.Builder
			code, err := run([]string{"-config", tc.file, "-backend", "trajectory"}, &b)
			if err == nil {
				t.Errorf("%s: no error", tc.file)
			}
			if code != tc.want {
				t.Errorf("%s: exit code %d, want %d (%v)", tc.file, code, tc.want, err)
			}
		}
	})

	t.Run("timeout", func(t *testing.T) {
		var b strings.Builder
		code, err := run([]string{"-backend", "trajectory", "-timeout", "1ns"}, &b)
		if err == nil {
			t.Fatal("expired budget produced a verdict")
		}
		if code != 3 {
			t.Errorf("expired budget: exit code %d, want 3 (%v)", code, err)
		}
	})
}

// TestAdmitMode replays the churn trace fixture: admissions, a
// deterministic rejection (the burst flow cannot meet deadline 8 even
// alone), an update and a removal, with exit code 0 (final set
// feasible).
func TestAdmitMode(t *testing.T) {
	out := runCLI(t, "-admit", filepath.Join("testdata", "churn.json"))
	for _, want := range []string{
		"admitted", "rejected", "updated", "removed",
		"voice1", "greedy", "burst",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("admit output missing %q:\n%s", want, out)
		}
	}
}

// TestAdmitModeErrors: malformed traces are configuration errors
// (exit 2), not crashes.
func TestAdmitModeErrors(t *testing.T) {
	cases := map[string]string{
		"missing file":  filepath.Join(t.TempDir(), "nope.json"),
		"bad json":      writeTrace(t, `{"events": [`),
		"unknown op":    writeTrace(t, `{"network":{"lmin":1,"lmax":1},"events":[{"op":"evict","name":"x"}]}`),
		"unknown flow":  writeTrace(t, `{"network":{"lmin":1,"lmax":1},"events":[{"op":"remove","name":"x"}]}`),
		"add sans flow": writeTrace(t, `{"network":{"lmin":1,"lmax":1},"events":[{"op":"add"}]}`),
	}
	for name, path := range cases {
		var b strings.Builder
		code, err := run([]string{"-admit", path}, &b)
		if err == nil || code != 2 {
			t.Errorf("%s: code %d, err %v; want code 2 with error", name, code, err)
		}
	}
}

// writeTrace writes a churn trace fixture and returns its path.
func writeTrace(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// admitRows runs -admit and returns the decision table's data rows,
// each split into fields, with the exit code.
func admitRows(t *testing.T, args ...string) ([][]string, int) {
	t.Helper()
	var b strings.Builder
	code, err := run(args, &b)
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	var rows [][]string
	for _, l := range lines[3:] {
		rows = append(rows, strings.Fields(l))
	}
	return rows, code
}

// TestAdmitBackend: -admit judges every decision under -backend, like
// trajand -backend. The holistic baseline refuses the video flow the
// trajectory bounds admit; -admit with -ef is a configuration error.
func TestAdmitBackend(t *testing.T) {
	trace := writeTrace(t, `{"network": {"lmin": 1, "lmax": 1}, "events": [
		{"op": "add", "flow": {"name": "voice1", "period": 50, "deadline": 20, "path": [1, 2, 3], "cost": 2}},
		{"op": "add", "flow": {"name": "voice2", "period": 50, "deadline": 20, "path": [2, 3, 4], "cost": 2}},
		{"op": "add", "flow": {"name": "video", "period": 40, "deadline": 30, "path": [1, 2, 3, 4], "cost": 3}}]}`)
	for backend, want := range map[string]string{"trajectory": "admitted", "combined": "admitted", "holistic": "rejected"} {
		out := runCLI(t, "-admit", trace, "-backend", backend)
		if !strings.Contains(out, "("+backend+", warm re-analysis)") {
			t.Errorf("-backend %s: title does not name the backend:\n%s", backend, out)
		}
		rows, _ := admitRows(t, "-admit", trace, "-backend", backend)
		if got := rows[2][3]; got != want {
			t.Errorf("-backend %s: video %s, want %s:\n%s", backend, got, want, out)
		}
	}
	var b strings.Builder
	if code, err := run([]string{"-admit", trace, "-ef"}, &b); err == nil || code != 2 {
		t.Errorf("-admit with -ef: code %d, err %v; want code 2 with error", code, err)
	}
}

// TestAdmitRenegotiationRefused: an update is an admission-tested
// renegotiation in place. One that would break a deadline is refused
// and the old contract stays in force: after the cross traffic leaves,
// voice1's slack is its original deadline's (20 - 8).
func TestAdmitRenegotiationRefused(t *testing.T) {
	trace := writeTrace(t, `{"network": {"lmin": 1, "lmax": 1}, "events": [
		{"op": "add", "flow": {"name": "voice1", "period": 50, "deadline": 20, "path": [1, 2, 3], "cost": 2}},
		{"op": "add", "flow": {"name": "voice2", "period": 50, "deadline": 20, "path": [2, 3, 4], "cost": 2}},
		{"op": "update", "flow": {"name": "voice1", "period": 50, "deadline": 9, "path": [1, 2, 3], "cost": 2}},
		{"op": "remove", "name": "voice2"}]}`)
	rows, code := admitRows(t, "-admit", trace)
	if code != 0 {
		t.Errorf("exit code %d, want 0 (final set feasible)", code)
	}
	if got := strings.Join(rows[2], " "); got != "2 update voice1 rejected (deadline miss) 2 -1" {
		t.Errorf("refused update row %q", got)
	}
	if got := strings.Join(rows[3], " "); got != "3 remove voice2 removed 1 12" {
		t.Errorf("release row %q: the old contract is not in force", got)
	}
}

// TestAdmitRouteUpdateValidation: under -route auto the topology
// validates update paths as well: an update over a link the fabric
// lacks is invalid input (exit 2), not an analysis of that link.
func TestAdmitRouteUpdateValidation(t *testing.T) {
	trace := writeTrace(t, `{"network": {"lmin": 1, "lmax": 1}, "events": [
		{"op": "add", "flow": {"name": "x", "period": 50, "deadline": 40, "path": [1000, 100, 0, 101, 1100], "cost": 2}},
		{"op": "update", "flow": {"name": "x", "period": 50, "deadline": 40, "path": [1000, 0], "cost": 2}}]}`)
	var b strings.Builder
	code, err := run([]string{"-admit", trace, "-route", "auto", "-topology", "clos:2x2x1"}, &b)
	if err == nil || code != 2 || !strings.Contains(err.Error(), "event 1") {
		t.Errorf("update over a nonexistent link: code %d, err %v; want code 2 at event 1", code, err)
	}
}

// TestWorkersFlag: explicit parallelism must not change any verdict.
func TestWorkersFlag(t *testing.T) {
	serial := runCLI(t, "-workers", "1", "-backend", "trajectory")
	par := runCLI(t, "-workers", "4", "-backend", "trajectory")
	if serial != par {
		t.Errorf("-workers changed the output:\nserial:\n%s\nparallel:\n%s", serial, par)
	}
	var b strings.Builder
	if code, err := run([]string{"-workers", "-2"}, &b); err == nil || code != 2 {
		t.Errorf("negative -workers: code %d, err %v", code, err)
	}
}

// TestProfileFlags: the pprof files are created and non-empty.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	runCLI(t, "-cpuprofile", cpu, "-memprofile", mem, "-backend", "trajectory")
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestBackendFlag: every selectable backend analyses the paper example
// end to end, the table carries the winning backend per flow, and the
// combined backend reports a margin column.
func TestBackendFlag(t *testing.T) {
	for _, b := range []string{"trajectory", "holistic", "netcalc", "combined"} {
		out := runCLI(t, "-backend", b)
		for _, want := range []string{"tau1", b + " backend", "margin"} {
			if !strings.Contains(out, want) {
				t.Errorf("-backend %s output missing %q:\n%s", b, want, out)
			}
		}
	}
	// Combined is never looser than trajectory: on the paper example the
	// trajectory bounds win or tie, so its rows must quote them.
	out := runCLI(t, "-backend", "combined")
	for _, want := range []string{"31", "37", "47", "40"} {
		if !strings.Contains(out, want) {
			t.Errorf("-backend combined output missing paper bound %q:\n%s", want, out)
		}
	}
}

// TestBackendFlagErrors: unknown backends, the removed -method flag,
// -backend all under -admit and an explicit -backend with -ef are
// configuration errors.
func TestBackendFlagErrors(t *testing.T) {
	churn := filepath.Join("testdata", "churn.json")
	for _, args := range [][]string{
		{"-backend", "simplex"},
		{"-backend", "netcalc", "-ef"},
		{"-backend", "all", "-ef"},
		{"-method", "trajectory"},
		{"-admit", churn, "-backend", "all"},
	} {
		var b strings.Builder
		if code, err := run(args, &b); err == nil || code != 2 {
			t.Errorf("%v: code %d, err %v; want code 2 with error", args, code, err)
		}
	}
}

// TestCLIGolden pins the default output (the paper example under
// -backend all) byte for byte: the trajectory bounds 31/37/47/47/40,
// the holistic baseline and the multiclass-FIFO netcalc backend.
func TestCLIGolden(t *testing.T) {
	got := runCLI(t)
	path := filepath.Join("testdata", "paper.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("default output differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// tableRows returns the fields of the first table's data rows: the
// lines between the header rule and the next blank line.
func tableRows(out string) [][]string {
	var rows [][]string
	in := false
	for _, l := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(l, "---"):
			in = true
		case in && strings.TrimSpace(l) == "":
			return rows
		case in:
			rows = append(rows, strings.Fields(l))
		}
	}
	return rows
}

// TestBackendFlagConsistency: -backend all is the concatenation of the
// concrete backends' own tables — every backend's rows (flow, deadline,
// bound, jitter, feasible) under all equal its -backend rows — and the
// verdict follows trajectory under all, the selected backend otherwise.
func TestBackendFlagConsistency(t *testing.T) {
	all := map[string][]string{}
	for _, r := range tableRows(runCLI(t, "-backend", "all")) {
		all[r[2]] = append(all[r[2]], strings.Join([]string{r[0], r[1], r[3], r[4], r[5]}, " "))
	}
	if len(all) != 3 {
		t.Fatalf("-backend all printed %d backends, want 3: %v", len(all), all)
	}
	for _, b := range []string{"trajectory", "holistic", "netcalc"} {
		var got []string
		for _, r := range tableRows(runCLI(t, "-backend", b)) {
			got = append(got, strings.Join([]string{r[0], r[1], r[2], r[3], r[6]}, " "))
		}
		if !reflect.DeepEqual(got, all[b]) {
			t.Errorf("-backend %s rows %q, -backend all rows %q", b, got, all[b])
		}
	}
	for args, want := range map[string]int{"all": 0, "trajectory": 0, "holistic": 1, "netcalc": 1, "combined": 0} {
		var b strings.Builder
		if code, err := run([]string{"-backend", args}, &b); err != nil || code != want {
			t.Errorf("-backend %s: code %d, err %v; want %d", args, code, err, want)
		}
	}
}

// TestSplitConfigVerdicts: on a config that needs an Assumption-1
// split, weave's chained bound (25) misses its deadline 20. The
// trajectory verdict, under all or alone, judges that chained bound;
// the other backends bound only fragments and are refused alone.
func TestSplitConfigVerdicts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flows.json")
	if err := os.WriteFile(path, []byte(`{"network":{"lmin":1,"lmax":1},"flows":[
	  {"name":"base","period":40,"deadline":100,"path":[1,2,3,4,5],"cost":3},
	  {"name":"weave","period":40,"deadline":20,"path":[2,3,9,4,5],"cost":3}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	chained := map[string]string{
		"all":        "weave 20 trajectory* 25 - false",
		"trajectory": "weave 20 25 - trajectory* - false",
	}
	for b, want := range map[string]int{"all": 1, "trajectory": 1, "holistic": 2, "netcalc": 2, "combined": 2} {
		var out strings.Builder
		code, err := run([]string{"-config", path, "-backend", b}, &out)
		if code != want {
			t.Errorf("-backend %s: code %d, err %v; want %d", b, code, err, want)
		}
		if want == 2 && (err == nil || !strings.Contains(err.Error(), "weave")) {
			t.Errorf("-backend %s: error %v does not name the split flow", b, err)
		}
		if want == 1 && strings.Join(tableRows(out.String())[1], " ") != chained[b] {
			t.Errorf("-backend %s: weave row is not the chained bound %q:\n%s", b, chained[b], out.String())
		}
	}
}

// TestExplainFlagBackends: -explain and -detail read the trajectory
// result of the same run, so they need -backend all or trajectory; with
// -backend trajectory all three reports print.
func TestExplainFlagBackends(t *testing.T) {
	out := runCLI(t, "-backend", "trajectory", "-explain", "tau2", "-detail", "-sensitivity")
	for _, want := range []string{"R(tau2) = 37", "tau3: bound=47 Bslow=20", "cost headroom"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, args := range [][]string{
		{"-backend", "holistic", "-explain", "tau2"},
		{"-backend", "combined", "-detail"},
	} {
		var b strings.Builder
		if code, err := run(args, &b); err == nil || code != 2 {
			t.Errorf("%v: code %d, err %v; want code 2 with error", args, code, err)
		}
	}
	if out := runCLI(t, "-backend", "netcalc", "-sensitivity"); !strings.Contains(out, "cost headroom") {
		t.Errorf("-sensitivity dropped under -backend netcalc:\n%s", out)
	}
}
