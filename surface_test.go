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

// flagSurface lists every flag the commands under dir declare, one line
// each: "cmd/<command> -name kind default", or "cmd/<command> <sub> -name
// kind default" for a subcommand's flag. It reads every non-test Go file of
// each command and attributes three forms of declaration:
//
//   - flag.Kind("name", default, usage) and flag.KindVar(&v, "name",
//     default, usage) declare the command's own flags;
//   - the same methods called on a *flag.FlagSet declare a subcommand's
//     flags when the calling function appears in a composite literal whose
//     first element is a string: the subcommand's name;
//   - a method whose body makes such calls binds shared flags, and each
//     subcommand function calling it declares them; a default that is one
//     of the method's parameters renders as the call's argument.
//
// A FlagSet declaration it cannot attribute to a subcommand fails the test,
// so no flag escapes the pin by the file or the form it is declared in.
func flagSurface(t *testing.T, dir string) []string {
	commands, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(commands) == 0 {
		t.Fatalf("no commands under %s: %v", dir, err)
	}
	var out []string
	for _, cmdDir := range commands {
		out = append(out, commandFlags(t, cmdDir)...)
	}
	return out
}

// flagDecl is one declaration call: the flag's name, kind and default.
type flagDecl struct {
	name, kind string
	def        ast.Expr
}

// flagKinds are the flag package's declaring functions and FlagSet
// methods, less their Var suffix ("" is Var itself).
var flagKinds = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"String": true, "Float64": true, "Duration": true,
	"Func": true, "BoolFunc": true, "Text": true, "": true,
}

// asFlagDecl recognises Kind("name", def, ...) and KindVar(&v, "name",
// def, ...) calls on any receiver; pkg reports a call on the flag package
// itself.
func asFlagDecl(t *testing.T, call *ast.CallExpr) (d flagDecl, pkg, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return d, false, false
	}
	kind, args := sel.Sel.Name, call.Args
	if strings.HasSuffix(kind, "Var") && len(args) > 0 {
		kind, args = strings.TrimSuffix(kind, "Var"), args[1:]
	}
	if !flagKinds[kind] || len(args) < 2 {
		return d, false, false
	}
	lit, isLit := args[0].(*ast.BasicLit)
	if !isLit || lit.Kind != token.STRING {
		return d, false, false
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		t.Fatal(err)
	}
	id, isIdent := sel.X.(*ast.Ident)
	return flagDecl{name: name, kind: strings.ToLower(kind), def: args[1]}, isIdent && id.Name == "flag", true
}

// commandFlags renders the flags of the command in cmdDir.
func commandFlags(t *testing.T, cmdDir string) []string {
	paths, err := filepath.Glob(filepath.Join(cmdDir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	command := filepath.ToSlash(cmdDir)
	fset := token.NewFileSet()
	render := func(e ast.Expr) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, e); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	var (
		out      []string
		funcs    []*ast.FuncDecl
		binders  = map[string]*ast.FuncDecl{}     // method name -> method declaring flags
		subNames = map[string]string{}            // function name -> subcommand
		decls    = map[*ast.FuncDecl][]flagDecl{} // FlagSet declarations per function
	)
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			funcs = append(funcs, fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				d, pkg, ok := asFlagDecl(t, call)
				switch {
				case ok && pkg:
					out = append(out, fmt.Sprintf("%s -%s %s %s", command, d.name, d.kind, render(d.def)))
				case ok:
					decls[fn] = append(decls[fn], d)
				}
				return true
			})
			if fn.Recv != nil && len(decls[fn]) > 0 {
				binders[fn.Name.Name] = fn
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) < 2 {
				return true
			}
			name, ok := lit.Elts[0].(*ast.BasicLit)
			if !ok || name.Kind != token.STRING {
				return true
			}
			sub, err := strconv.Unquote(name.Value)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range lit.Elts[1:] {
				if id, ok := e.(*ast.Ident); ok {
					subNames[id.Name] = sub
				}
			}
			return true
		})
	}

	bound := map[string]bool{}
	for _, fn := range funcs {
		if fn.Recv != nil {
			continue
		}
		sub, isSub := subNames[fn.Name.Name]
		line := func(d flagDecl, def ast.Expr) {
			if !isSub {
				t.Errorf("%s: %s declares -%s outside any subcommand", command, fn.Name.Name, d.name)
				return
			}
			out = append(out, fmt.Sprintf("%s %s -%s %s %s", command, sub, d.name, d.kind, render(def)))
		}
		for _, d := range decls[fn] {
			line(d, d.def)
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || binders[sel.Sel.Name] == nil {
				return true
			}
			method := binders[sel.Sel.Name]
			bound[method.Name.Name] = true
			args := map[string]ast.Expr{}
			var params []*ast.Ident
			for _, field := range method.Type.Params.List {
				params = append(params, field.Names...)
			}
			for i, p := range params {
				if i < len(call.Args) {
					args[p.Name] = call.Args[i]
				}
			}
			for _, d := range decls[method] {
				def := d.def
				if id, ok := def.(*ast.Ident); ok && args[id.Name] != nil {
					def = args[id.Name]
				}
				line(d, def)
			}
			return true
		})
	}
	for name, method := range binders {
		if !bound[name] {
			for _, d := range decls[method] {
				t.Errorf("%s: method %s declares -%s but no subcommand calls it", command, name, d.name)
			}
		}
	}
	return out
}
