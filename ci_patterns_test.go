package trajan_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatterns guards the CI workflow's test selections. A
// `go test -run X` whose X matches nothing passes silently, so
// deleting or renaming a test can turn a CI step into a no-op. For
// every `go test` command in .github/workflows/ci.yml, each
// |-alternative of its -run pattern must match at least one Test, Fuzz
// or Example function, and of its -bench pattern one Benchmark
// function, in the packages the command names. The conventional
// `-run xxx` (run no tests, only benchmarks) is exempt.
func TestCIRunPatterns(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{} // package dir → test function names
	checked := 0
	for ln, line := range strings.Split(string(raw), "\n") {
		// A one-line step carries its command after the `run:` key.
		line = strings.TrimPrefix(strings.TrimSpace(line), "run:")
		for _, cmd := range shellCommands(line) {
			if len(cmd) < 2 || cmd[0] != "go" || cmd[1] != "test" {
				continue
			}
			pats := map[string]string{} // flag → pattern
			var dirs []string
			for k := 2; k < len(cmd); k++ {
				arg := cmd[k]
				flag, val, hasVal := strings.Cut(arg, "=")
				switch {
				case flag != "-run" && flag != "-bench":
					if arg == "." || strings.HasPrefix(arg, "./") {
						dirs = append(dirs, arg)
					}
				case hasVal:
					pats[flag] = val
				case k+1 < len(cmd):
					k++
					pats[flag] = cmd[k]
				}
			}
			if len(pats) == 0 {
				continue
			}
			var names []string
			for _, dir := range dirs {
				if _, ok := funcs[dir]; !ok {
					funcs[dir] = testFuncs(t, dir)
				}
				names = append(names, funcs[dir]...)
			}
			for flag, pat := range pats {
				if pat == "xxx" {
					continue
				}
				bench := flag == "-bench"
				for _, alt := range strings.Split(pat, "|") {
					top, _, _ := strings.Cut(alt, "/")
					re, err := regexp.Compile(top)
					if err != nil {
						t.Errorf("ci.yml:%d: pattern %q: %v", ln+1, alt, err)
						continue
					}
					checked++
					if !anyMatch(re, names, bench) {
						t.Errorf("ci.yml:%d: %s %q matches no function in %v", ln+1, flag, alt, dirs)
					}
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("checked only %d pattern alternatives; the workflow parser has likely drifted", checked)
	}
}

// shellCommands splits one workflow line into its simple commands:
// words are separated by blanks, single quotes group, and unquoted
// `|`, `;` and `&` end a command.
func shellCommands(line string) [][]string {
	var cmds [][]string
	var cmd []string
	var word strings.Builder
	inWord, quoted := false, false
	flushWord := func() {
		if inWord {
			cmd = append(cmd, word.String())
			word.Reset()
			inWord = false
		}
	}
	for _, r := range line {
		switch {
		case quoted:
			if r == '\'' {
				quoted = false
			} else {
				word.WriteRune(r)
			}
		case r == '\'':
			quoted, inWord = true, true
		case r == ' ' || r == '\t':
			flushWord()
		case r == '|' || r == ';' || r == '&':
			flushWord()
			if len(cmd) > 0 {
				cmds = append(cmds, cmd)
			}
			cmd = nil
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	flushWord()
	if len(cmd) > 0 {
		cmds = append(cmds, cmd)
	}
	// A leading VAR=value environment assignment is not the command.
	for i, c := range cmds {
		for len(c) > 0 && strings.Contains(c[0], "=") && !strings.HasPrefix(c[0], "-") {
			c = c[1:]
		}
		cmds[i] = c
	}
	return cmds
}

// testFuncs lists the Test, Benchmark, Fuzz and Example functions
// declared in the _test.go files of one package directory.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Errorf("ci.yml names %s, which has no test files", dir)
	}
	var names []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
				if strings.HasPrefix(fd.Name.Name, prefix) {
					names = append(names, fd.Name.Name)
					break
				}
			}
		}
	}
	return names
}

// anyMatch reports whether re matches a benchmark name (bench) or a
// test, fuzz or example name (!bench).
func anyMatch(re *regexp.Regexp, names []string, bench bool) bool {
	for _, n := range names {
		if strings.HasPrefix(n, "Benchmark") == bench && re.MatchString(n) {
			return true
		}
	}
	return false
}
