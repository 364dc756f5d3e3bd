package dynalloc_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/surface.golden from the current tree")

// TestSurface pins the repository's public surface: every exported
// declaration of the facade (dynalloc.go) and every command-line flag the
// commands under cmd/ declare with the flag package, with its kind and
// default. A change to either shows up here as a diff against
// testdata/surface.golden; when the change is intended, rewrite the golden:
//
//	go test . -run TestSurface -update
func TestSurface(t *testing.T) {
	got := append(facadeSurface(t, "dynalloc.go"), flagSurface(t, "cmd")...)
	slices.Sort(got)
	text := strings.Join(got, "\n") + "\n"
	golden := filepath.Join("testdata", "surface.golden")
	if *updateSurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (go test . -run TestSurface -update writes it)", err)
	}
	if text == string(want) {
		return
	}
	have := map[string]bool{}
	for _, line := range got {
		have[line] = true
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		if !have[line] {
			t.Errorf("removed: %s", line)
		}
		delete(have, line)
	}
	for _, line := range got {
		if have[line] {
			t.Errorf("added:   %s", line)
		}
	}
	t.Error("the public surface changed; if that is intended, run go test . -run TestSurface -update")
}

// facadeSurface renders each exported top-level declaration of the file as
// one line: a function's signature, a type's definition, a constant's or a
// variable's name and value.
func facadeSurface(t *testing.T, path string) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	render := func(node any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, node); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				out = append(out, render(&ast.FuncDecl{Recv: d.Recv, Name: d.Name, Type: d.Type}))
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, "type "+render(s))
					}
				case *ast.ValueSpec:
					for i, name := range s.Names {
						if !name.IsExported() {
							continue
						}
						line := d.Tok.String() + " " + name.Name
						if i < len(s.Values) {
							line += " = " + render(s.Values[i])
						}
						out = append(out, line)
					}
				}
			}
		}
	}
	return out
}

// flagSurface lists every flag.Kind("name", default, usage) and
// flag.KindVar(&v, "name", default, usage) call in dir/*/main.go as
// "cmd/<command> -name kind default".
func flagSurface(t *testing.T, dir string) []string {
	mains, err := filepath.Glob(filepath.Join(dir, "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no commands under %s: %v", dir, err)
	}
	var out []string
	for _, path := range mains {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		command := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			kind, args := sel.Sel.Name, call.Args
			if strings.HasSuffix(kind, "Var") && len(args) > 0 {
				kind, args = strings.TrimSuffix(kind, "Var"), args[1:]
			}
			if len(args) < 2 {
				return true
			}
			lit, ok := args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			var def bytes.Buffer
			if err := printer.Fprint(&def, fset, args[1]); err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%s -%s %s %s", command, name, strings.ToLower(kind), def.String()))
			return true
		})
	}
	return out
}
