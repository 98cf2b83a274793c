// Command deadnames prints each exported name of the library packages that
// no program uses: no use outside _test.go files and bench/ (the
// benchmark, a module of its own). It exits 1 when a printed name is not on
// the keep-list below, or when a keep-list name is no longer dead, so the
// list cannot rot.
//
// A package-level name (func, type, var, const) is matched qualified:
// pkg.Name in a file that imports the package, or a bare Name in another
// declaration of the package itself. A method or a struct field is matched
// by name alone: any x.Name selector or Name: literal key anywhere in the
// module's program files counts, so a method is reported only when no
// program spells its name at all. The probe is syntactic (go/ast, no type
// checking), which keeps it a stdlib-only program.
//
// Usage: go run ./scripts/deadnames (from the module root)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
)

// packages are the library packages probed, by directory.
var packages = []string{
	"dcindex",
	"internal/admin",
	"internal/buffering",
	"internal/core",
	"internal/index",
	"internal/netrun",
	"internal/telemetry",
	"internal/workload",
}

// keep lists the dead names that stay, each with its reason.
var keep = map[string]string{
	"dcindex.MethodC1":              "the paper's method enum",
	"dcindex.MethodC2":              "the paper's method enum",
	"dcindex.ClusterStats":          "names the internal type TCPCluster.Stats returns",
	"dcindex.ReplicaStats":          "names the internal type ClusterStats.Replicas holds",
	"dcindex.SaveKeys":              "dcnode's documented snapshot workflow",
	"dcindex.ServePartition":        "the library's one-call node; dcnode builds its own to set flags",
	"workload.ReferenceRank":        "the rank oracle the tests of every package hold the engines to",
	"core.Partitioning.Delimiters":  "bench-only until the benchmark-only change",
	"netrun.ReadFrame":              "bench-only until the benchmark-only change",
	"netrun.WriteFrame":             "bench-only until the benchmark-only change",
	"telemetry.Registry.Histograms": "bench-only until the benchmark-only change",
	"workload.Batches":              "bench-only until the benchmark-only change",
}

const module = "repro"

// decl is one exported name: its report key and, for a method or field,
// the bare name it is matched by.
type decl struct {
	key    string
	member string // "" for a package-level name
}

func main() {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> program files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadnames:", err)
		os.Exit(2)
	}

	// Every member name spelled anywhere in a program file.
	members := map[string]bool{}
	for _, fs := range files {
		for _, f := range fs {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					members[n.Sel.Name] = true
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						members[id.Name] = true
					}
				}
				return true
			})
		}
	}

	var decls []decl
	used := map[string]bool{}
	for _, dir := range packages {
		pkg := path.Join(module, dir)
		short := path.Base(pkg)
		own := map[*ast.Ident]bool{}
		for _, f := range files[pkg] {
			decls = append(decls, exported(f, short, own)...)
		}
		// Bare uses inside the package. The name a selector selects is
		// another package's or a member, never one of this package's.
		var bare func(n ast.Node) bool
		bare = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				ast.Inspect(n.X, bare)
				return false
			case *ast.Ident:
				if !own[n] {
					used[short+"."+n.Name] = true
				}
			}
			return true
		}
		for _, f := range files[pkg] {
			ast.Inspect(f, bare)
		}
		// Qualified uses from every other program file.
		for imp, fs := range files {
			if imp == pkg {
				continue
			}
			for _, f := range fs {
				local := importName(f, pkg)
				if local == "" {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if s, ok := n.(*ast.SelectorExpr); ok {
						if x, ok := s.X.(*ast.Ident); ok && x.Name == local {
							used[short+"."+s.Sel.Name] = true
						}
					}
					return true
				})
			}
		}
	}

	var dead, unkept []string
	for _, d := range decls {
		if d.member != "" && members[d.member] || d.member == "" && used[d.key] {
			continue
		}
		dead = append(dead, d.key)
	}
	slices.Sort(dead)
	for _, k := range dead {
		if why, ok := keep[k]; ok {
			fmt.Printf("%s\tkept: %s\n", k, why)
		} else {
			fmt.Printf("%s\n", k)
			unkept = append(unkept, k)
		}
	}
	var stale []string
	for k := range keep {
		if !slices.Contains(dead, k) {
			stale = append(stale, k)
		}
	}
	slices.Sort(stale)
	fmt.Printf("deadnames: %d of %d exported names have no use outside tests and bench/; %d not kept\n",
		len(dead), len(decls), len(unkept))
	for _, k := range stale {
		fmt.Printf("deadnames: keep-list name %s has a use or no longer exists\n", k)
	}
	if len(unkept) > 0 || len(stale) > 0 {
		os.Exit(1)
	}
}

// exported returns f's exported names, package-level ones as pkg.Name and
// methods and fields as pkg.Type.Name, and marks every declaring
// identifier in own so that it does not count as a use of a package-level
// name.
func exported(f *ast.File, pkg string, own map[*ast.Ident]bool) []decl {
	var out []decl
	top := func(id *ast.Ident) {
		own[id] = true
		if id.IsExported() {
			out = append(out, decl{key: pkg + "." + id.Name})
		}
	}
	member := func(typ string, id *ast.Ident) {
		own[id] = true
		if id.IsExported() && ast.IsExported(typ) {
			out = append(out, decl{key: pkg + "." + typ + "." + id.Name, member: id.Name})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top(d.Name)
			} else {
				member(recvType(d.Recv.List[0].Type), d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						top(id)
					}
				case *ast.TypeSpec:
					top(s.Name)
					var fields *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, id := range fl.Names {
							member(s.Name.Name, id)
						}
					}
				}
			}
		}
	}
	return out
}

// recvType is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// importName is the name f refers to the package at pkg by, or "" when f
// does not import it.
func importName(f *ast.File, pkg string) string {
	for _, s := range f.Imports {
		if strings.Trim(s.Path.Value, `"`) != pkg {
			continue
		}
		if s.Name != nil {
			return s.Name.Name
		}
		return path.Base(pkg)
	}
	return ""
}
