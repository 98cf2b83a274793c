// Package knobdoc checks that every exported field of an option struct
// marked `//dc:knobs <relpath>` is mentioned in the named documentation
// file, resolved relative to the declaring source file's directory.
//
// The repo's config surfaces (dcindex.Options, netrun.DialOptions and
// its nested groups) are documented as knob tables in README.md; a knob
// added to a struct but not to its table is invisible to operators
// until someone reads the source. The check is a word-boundary search
// for the field's name — documentation prose may spell it flat
// (`WALDir`) or dotted (`Durability.WALDir`), both match. Unexported
// and embedded fields are ignored.
package knobdoc

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"

	"repro/internal/analyzers/directives"
	"repro/internal/analyzers/framework"
)

// Analyzer is the knobdoc pass.
var Analyzer = &framework.Analyzer{
	Name: "knobdoc",
	Doc:  "checks every exported field of a //dc:knobs option struct appears in the named doc file",
	Run:  run,
}

func run(pass *framework.Pass) error {
	// One read per doc file, shared across structs; nil records an
	// unreadable file so the error is reported once, not per struct.
	docs := map[string][]byte{}
	for _, f := range pass.Files {
		dir := filepath.Dir(pass.Fset.Position(f.Pos()).Filename)
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			declDirs := directives.Named(directives.OfGroup(gd.Doc), "knobs")
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				ds := append(declDirs[:len(declDirs):len(declDirs)],
					directives.Named(directives.OfGroup(ts.Doc), "knobs")...)
				if len(ds) == 0 {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					pass.Reportf(ts.Pos(), "//dc:knobs applies to struct types only")
					continue
				}
				for _, d := range ds {
					rel := d.Arg(0)
					if rel == "" {
						pass.Reportf(ts.Pos(), "//dc:knobs needs a doc-file path argument (relative to this source file)")
						continue
					}
					path := filepath.Join(dir, rel)
					body, seen := docs[path]
					if !seen {
						b, err := os.ReadFile(path)
						if err != nil {
							pass.Reportf(ts.Pos(), "//dc:knobs doc file %s is unreadable: %v", rel, err)
							b = nil
						}
						docs[path] = b
						body = b
					}
					if body != nil {
						checkFields(pass, ts.Name.Name, st, body, rel)
					}
				}
			}
		}
	}
	return nil
}

// checkFields reports every exported field of st whose name does not
// appear (as a whole word) in the doc file body.
func checkFields(pass *framework.Pass, typeName string, st *ast.StructType, body []byte, rel string) {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if !name.IsExported() {
				continue
			}
			re := regexp.MustCompile(`\b` + regexp.QuoteMeta(name.Name) + `\b`)
			if !re.Match(body) {
				pass.Reportf(name.Pos(),
					"knob %s.%s is not documented in %s (every exported option needs a knob-table entry)",
					typeName, name.Name, rel)
			}
		}
	}
}
