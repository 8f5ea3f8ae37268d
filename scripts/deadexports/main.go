// Command deadexports lists the exported functions, methods, types and
// package-level variables of the repository's non-main packages whose
// name no identifier in the repository mentions besides their own
// declaration, and exits 1 if it lists any. Tests, commands, examples,
// scripts and perfbench all count as mentions. Constants are exempt: an
// unmentioned one may still hold an iota position or name a value kept
// in stored bytes. The scan goes by name only, so a dead declaration
// that shares its name with a live one elsewhere is not listed.
//
// Usage, from the repository root:
//
//	go run ./scripts/deadexports
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	fset := token.NewFileSet()
	mentions := map[string]int{}
	var decls []*ast.Ident
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mentions[id.Name]++
			}
			return true
		})
		if f.Name.Name != "main" && !strings.HasSuffix(path, "_test.go") {
			decls = append(decls, declared(f)...)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(2)
	}
	dead := 0
	for _, id := range decls {
		if id.IsExported() && mentions[id.Name] == 1 {
			fmt.Printf("%s: %s is exported and never mentioned\n", fset.Position(id.Pos()), id.Name)
			dead++
		}
	}
	if dead > 0 {
		os.Exit(1)
	}
}

// declared returns the names f declares as functions, methods, types
// and package-level variables.
func declared(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			ids = append(ids, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					ids = append(ids, s.Name)
				case *ast.ValueSpec:
					if d.Tok == token.VAR {
						ids = append(ids, s.Names...)
					}
				}
			}
		}
	}
	return ids
}
