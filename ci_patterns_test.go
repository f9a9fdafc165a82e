package contextpref

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

// TestCIPatternsMatchTests reads every `go test` command in the CI
// workflow and the Makefile, and fails on any alternative of a -run,
// -bench or -fuzz pattern that matches no test function in the
// packages the command names. go test treats a pattern that matches
// nothing as success, so a renamed test would otherwise leave a step
// that runs nothing and passes. -run matches Test, Fuzz and Example
// functions, -bench Benchmark functions and -fuzz Fuzz functions, each
// listed with go/parser from the packages' _test.go files. Only a
// pattern's top level is checked (the part before the first '/'), and
// '^$', which selects nothing on purpose, is skipped.
func TestCIPatternsMatchTests(t *testing.T) {
	commands := 0
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		makefile := file == "Makefile"
		for _, line := range logicalLines(string(text)) {
			if makefile {
				line = strings.ReplaceAll(line, "$$", "$")
			}
			for _, cmd := range goTestCommands(line) {
				commands++
				funcs := testFuncs(t, cmd.dir, cmd.pkgs)
				for _, f := range cmd.filters {
					for _, alt := range topAlternatives(f.pattern) {
						if alt == "^$" {
							continue
						}
						re, err := regexp.Compile(alt)
						if err != nil {
							t.Errorf("%s: %s %s: %v", file, f.flag, f.pattern, err)
							continue
						}
						if !matchesAny(re, funcs, f.kinds) {
							t.Errorf("%s: `%s` in `go test %s` matches no %s function in %s %v",
								file, alt, strings.Join(cmd.args, " "), strings.Join(f.kinds, "/"), cmd.dir, cmd.pkgs)
						}
					}
				}
			}
		}
	}
	if commands == 0 {
		t.Fatal("no go test command found in the CI workflow or the Makefile")
	}
}

// logicalLines splits text into lines, joining backslash continuations
// and dropping comment lines.
func logicalLines(text string) []string {
	var out []string
	var cur strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") && cur.Len() == 0 {
			continue
		}
		if strings.HasSuffix(line, "\\") {
			cur.WriteString(strings.TrimSuffix(line, "\\"))
			cur.WriteByte(' ')
			continue
		}
		cur.WriteString(line)
		out = append(out, cur.String())
		cur.Reset()
	}
	return out
}

// goTestCommand is one `go test` invocation: the directory it runs in,
// relative to the repository root, its packages and its name filters.
type goTestCommand struct {
	dir     string
	args    []string
	pkgs    []string
	filters []testFilter
}

// testFilter is one -run, -bench or -fuzz pattern and the kinds of
// function it selects among.
type testFilter struct {
	flag, pattern string
	kinds         []string
}

// valueFlags are the go test flags that take a value, which may follow
// as the next argument.
var valueFlags = map[string]bool{
	"run": true, "bench": true, "fuzz": true, "skip": true, "count": true,
	"benchtime": true, "fuzztime": true, "timeout": true, "cpu": true,
	"parallel": true, "coverprofile": true, "o": true, "outputdir": true,
	"tags": true, "shuffle": true,
}

// shellOperators end a command's arguments.
var shellOperators = map[string]bool{"|": true, "||": true, "&&": true, ";": true, "{": true, "}": true, "2>&1": true}

// goTestCommands finds the `go test` commands of a shell line (`go` may
// be spelled `$(GO)`), following a `cd` earlier on the line.
func goTestCommands(line string) []goTestCommand {
	words := shellWords(line)
	dir := "."
	var out []goTestCommand
	for i := 0; i < len(words); i++ {
		if words[i] == "cd" && i+1 < len(words) {
			dir = words[i+1]
			continue
		}
		if (words[i] != "go" && words[i] != "$(GO)") || i+1 >= len(words) || words[i+1] != "test" {
			continue
		}
		cmd := goTestCommand{dir: dir}
		j := i + 2
		for ; j < len(words) && !shellOperators[words[j]] && !strings.HasPrefix(words[j], ">"); j++ {
			w := words[j]
			cmd.args = append(cmd.args, w)
			if !strings.HasPrefix(w, "-") {
				cmd.pkgs = append(cmd.pkgs, w)
				continue
			}
			name, value, inline := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if !inline && valueFlags[name] && j+1 < len(words) {
				j++
				value = words[j]
				cmd.args = append(cmd.args, value)
			}
			switch name {
			case "run":
				cmd.filters = append(cmd.filters, testFilter{"-run", value, []string{"Test", "Fuzz", "Example"}})
			case "bench":
				cmd.filters = append(cmd.filters, testFilter{"-bench", value, []string{"Benchmark"}})
			case "fuzz":
				cmd.filters = append(cmd.filters, testFilter{"-fuzz", value, []string{"Fuzz"}})
			}
		}
		if len(cmd.pkgs) == 0 {
			cmd.pkgs = []string{"."}
		}
		out = append(out, cmd)
		i = j
	}
	return out
}

// shellWords splits a line into words as a shell would for the commands
// above: on blanks outside quotes, with the quotes removed.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote byte
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// topAlternatives returns the '|'-separated alternatives of a pattern's
// first '/'-separated element, splitting outside brackets and
// parentheses as go test does.
func topAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case '/':
			if depth == 0 {
				return append(alts, pattern[start:i])
			}
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// testFuncs lists the top-level Test, Fuzz, Benchmark and Example
// functions of the packages, relative to dir. A pattern ending in
// /... names every package below it in the same module.
func testFuncs(t *testing.T, dir string, pkgs []string) []string {
	t.Helper()
	var funcs []string
	for _, pkg := range pkgs {
		root, recursive := strings.CutSuffix(pkg, "/...")
		root = filepath.Join(dir, root)
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != root && (!recursive || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if path != root {
					if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
						return filepath.SkipDir // another module
					}
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
					funcs = append(funcs, fd.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("listing %s: %v", pkg, err)
		}
	}
	return funcs
}

// matchesAny reports whether re matches a function of one of the kinds.
func matchesAny(re *regexp.Regexp, funcs, kinds []string) bool {
	for _, f := range funcs {
		for _, k := range kinds {
			if strings.HasPrefix(f, k) && re.MatchString(f) {
				return true
			}
		}
	}
	return false
}
