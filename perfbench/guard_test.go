package perfbench

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const (
	repoModule  = "github.com/bgpsim/bgpsim"
	benchModule = repoModule + "/perfbench"
)

// TestEndToEndImportsOnlyUserSurfaces keeps the end-to-end benchmark on
// the program's user surfaces: every package here except cmd/traced
// imports only the standard library, the root bgpsim package and the
// benchmark's own packages, so rewrites inside internal/ leave it
// building and its numbers comparable. cmd/traced alone may import
// internal/, and no other package imports it.
func TestEndToEndImportsOnlyUserSurfaces(t *testing.T) {
	fset := token.NewFileSet()
	seen := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		seen++
		traced := filepath.ToSlash(filepath.Dir(path)) == "cmd/traced"
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			switch {
			case p == benchModule+"/cmd/traced":
				t.Errorf("%s imports the traced program", path)
			case p == repoModule, strings.HasPrefix(p, benchModule+"/"):
			case strings.HasPrefix(p, repoModule+"/internal/") && traced:
			case strings.HasPrefix(p, repoModule+"/"):
				t.Errorf("%s imports %s: only cmd/traced may reach past the root package", path, p)
			case strings.Contains(strings.SplitN(p, "/", 2)[0], "."):
				t.Errorf("%s imports %s, outside the standard library", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("no Go files found")
	}
}

// TestProgramReachedThroughBinaries checks that the runner builds the
// hijackd and mrtreplay commands from the repository's source and that
// the end-to-end program starts them as child processes.
func TestProgramReachedThroughBinaries(t *testing.T) {
	run, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(run), "go build -o \"$build/bin/\" ./cmd/hijackd ./cmd/mrtreplay") {
		t.Error("run.sh no longer builds ./cmd/hijackd and ./cmd/mrtreplay from the repository")
	}
	for file, bin := range map[string]string{"cmd/bench/hijackd.go": `"hijackd"`, "cmd/bench/mrt.go": `"mrtreplay"`} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), "startChild(filepath.Join(cfg.bin, "+bin+")") {
			t.Errorf("%s does not start the built %s binary", file, bin)
		}
	}
}
