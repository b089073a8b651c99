package fp

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// moduleRoot is the main module's directory; tests run in internal/fp.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root: %v", err)
	}
	return root
}

// fusedOp matches the fused multiply-add instructions of the architectures
// whose compilers fuse: arm64 (FMADDD, FNMSUBD, …), ppc64le (FMADD, …),
// s390x (FMADD, WFMADB, …) and riscv64 (FMADDD, …).
var fusedOp = regexp.MustCompile(`^(FN?M(ADD|SUB)[A-Z]*|WFN?M[AS]DB)$`)

// listingLine is one instruction of `go build -gcflags=-S` output:
// "\t0x0140 00320 (/path/file.go:155)\tFMADDD\tF4, F5, F2, F2".
var listingLine = regexp.MustCompile(`^\s+0x[0-9a-f]+ \d+ \((.+):(\d+)\)\s+(\S+)`)

// TestNoFusedMultiplyAdd compiles every package of the module for each
// architecture whose compiler fuses a*b + c into one rounding, and fails on
// any fused instruction except those of an explicit math.FMA call in this
// package. A product that meets an addition anywhere else must be rounded
// by float64(...), as the Go specification allows, so that every
// architecture computes the bits amd64 does.
//
// The go command replays a cached compilation's listing, so repeated runs
// are quick; each package must show its TEXT symbols, so an empty listing
// cannot pass.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the module four times")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	root := moduleRoot(t)
	lines := map[string][]string{} // file → its lines, read on demand
	sourceLine := func(file string, n int) string {
		if _, ok := lines[file]; !ok {
			b, _ := os.ReadFile(file)
			lines[file] = strings.Split(string(b), "\n")
		}
		if l := lines[file]; n >= 1 && n <= len(l) {
			return l[n-1]
		}
		return ""
	}
	fpDir := filepath.Join(root, "internal", "fp")
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		t.Run(arch, func(t *testing.T) {
			env := append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0", "GOFLAGS=")
			list := exec.Command(goBin, "list", "-f", "{{.Dir}}", "paragraph/...")
			list.Dir, list.Env = root, env
			out, err := list.Output()
			if err != nil {
				t.Fatalf("go list: %v", err)
			}
			unseen := map[string]bool{}
			for _, dir := range strings.Fields(string(out)) {
				unseen[dir] = dir != root // the root package is documentation only
			}

			cmd := exec.Command(goBin, "build", "-gcflags=paragraph/...=-S", "paragraph/...")
			cmd.Dir, cmd.Env = root, env
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var fused []string
			sc := bufio.NewScanner(stderr)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				m := listingLine.FindStringSubmatch(sc.Text())
				if m == nil {
					continue
				}
				file, op := m[1], m[3]
				if op == "TEXT" {
					delete(unseen, filepath.Dir(file))
					continue
				}
				if !fusedOp.MatchString(op) {
					continue
				}
				n, _ := strconv.Atoi(m[2])
				if filepath.Dir(file) == fpDir && strings.Contains(sourceLine(file, n), "math.FMA(") {
					continue
				}
				fused = append(fused, fmt.Sprintf("%s:%d %s", file, n, op))
			}
			if err := cmd.Wait(); err != nil {
				t.Fatalf("go build for %s: %v", arch, err)
			}
			slices.Sort(fused)
			for _, f := range slices.Compact(fused) {
				t.Errorf("fused multiply-add outside fp's math.FMA calls: %s", f)
			}
			for dir, want := range unseen {
				if want {
					t.Errorf("no TEXT symbol of %s in the %s listing", dir, arch)
				}
			}
		})
	}
}

// exactMath are the functions of package math whose result is exact (or
// a pure bit operation): the same on every CPU and architecture.
var exactMath = map[string]bool{
	"Abs": true, "Sqrt": true, "Floor": true, "Ceil": true, "Trunc": true,
	"RoundToEven": true, "Max": true, "Min": true, "Inf": true, "NaN": true,
	"IsNaN": true, "IsInf": true, "Signbit": true, "Copysign": true,
	"Float64bits": true, "Float64frombits": true, "Frexp": true, "Ldexp": true,
}

// TestOnlyExactMathOutsideFP requires every non-test file of the module
// outside this package to use from package math only its constants and
// exact functions. Everything else goes through fp.
func TestOnlyExactMathOutsideFP(t *testing.T) {
	mathPkg, err := build.Default.Import("math", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range mathPkg.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(mathPkg.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				funcs[fd.Name.Name] = true
			}
		}
	}
	if !funcs["Exp"] || !funcs["Log1p"] {
		t.Fatalf("parsed %d functions of package math from %s", len(funcs), mathPkg.Dir)
	}

	root := moduleRoot(t)
	fpDir := filepath.Join(root, "internal", "fp")
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") ||
				path == fpDir || fileExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir // fp itself, and other modules (bench/)
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"math"` {
				local = "math"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local &&
				funcs[sel.Sel.Name] && !exactMath[sel.Sel.Name] {
				t.Errorf("%s: math.%s is not exact on every CPU; use fp", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d Go files under %s", files, root)
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
