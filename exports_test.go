package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// reserved lists the exported identifiers under internal/ that no
// non-test code calls yet but that stay on purpose, each with the
// ROADMAP item or test seam that keeps it. TestEveryExportHasACaller
// skips them, and fails once one of them gains a non-test caller, so
// the list shrinks as the items land instead of going stale.
// References from reserved code do not count as callers, so what a
// reserved identifier alone uses is reserved too.
var reserved = map[string]string{
	"clique.PackBits":   "ROADMAP: The model's word, executable",
	"clique.UnpackBits": "ROADMAP: The model's word, executable",

	"core.Problem":           "ROADMAP: Bounds as data",
	"core.Solver":            "ROADMAP: Bounds as data",
	"core.Class":             "ROADMAP: Bounds as data",
	"core.RoundBound":        "ROADMAP: Bounds as data",
	"core.CLIQUE":            "ROADMAP: Bounds as data",
	"core.NCLIQUE":           "ROADMAP: Bounds as data",
	"core.Conformance":       "ROADMAP: Bounds as data",
	"core.CheckSolves":       "ROADMAP: Bounds as data",
	"core.CheckNondetSolves": "ROADMAP: Bounds as data",

	"graph.IsProperColoring":        "ROADMAP: Answers, not just costs",
	"graph.TransitiveClosureOracle": "ROADMAP: Answers, not just costs",
	"graph.MinVertexCoverSize":      "ROADMAP: Answers, not just costs",

	"reduction.ColoringGraph":        "ROADMAP: Figure 1's arrows, executed and checked",
	"reduction.ColoringFromIS":       "ROADMAP: Figure 1's arrows, executed and checked",
	"reduction.KColorableViaMaxIS":   "ROADMAP: Figure 1's arrows, executed and checked",
	"reduction.DHZGraph":             "ROADMAP: Figure 1's arrows, executed and checked",
	"reduction.BMMViaApproxAPSP":     "ROADMAP: Figure 1's arrows, executed and checked",
	"reduction.ProductFromDistances": "ROADMAP: Figure 1's arrows, executed and checked",
	"reduction.DHZLayout":            "ROADMAP: Figure 1's arrows, executed and checked",
	"gather.Full":                    "ROADMAP: Figure 1's arrows, executed and checked (reduction.KColorableViaMaxIS's per-node gather)",

	"fault.Install":     "seam: fault injection for the ledger and serve tests",
	"grid.ParseRunsCSV": "seam: the documented inverse of WriteRunsCSV",
	"exp.RunOne":        "seam: runs one registry experiment for other packages' tests",
	"clique.Stats":      "seam: the name tests across packages compare a run's model cost by",

	"nondet.ExhaustiveDecide": "seam: the reference decider core's and hierarchy's tests compare against",

	"graph.Cycle":               "seam: graph generator several packages' tests use",
	"graph.CompleteBipartite":   "seam: graph generator several packages' tests use",
	"graph.PlantedTriangleFree": "seam: graph generator several packages' tests use",
	"graph.FromUnweighted":      "seam: graph generator several packages' tests use",
}

// exportScanRoots are the trees whose non-test files count as callers.
var exportScanRoots = []string{"internal", "cmd", "examples", "bench"}

// TestEveryExportHasACaller keeps code that only tests reach from
// growing back. It lists every exported top-level func, type, var and
// const under internal/ and fails on any that no non-test .go file
// references, outside its own declaration (a type's methods count as
// part of the type). Methods are skipped: interface satisfaction makes
// matching them by name unreliable. The scan is syntactic: a package
// is named by the last element of its import path or by the import's
// alias.
func TestEveryExportHasACaller(t *testing.T) {
	decls := map[string]string{}         // "pkg.Name" -> declaring file
	refs := map[string]map[string]bool{} // "pkg.Name" -> referring declarations
	for _, root := range exportScanRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				scanExports(t, path, decls, refs)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no exported identifiers under internal/")
	}
	called := func(id string) bool {
		for from := range refs[id] {
			if from != id && reserved[from] == "" {
				return true
			}
		}
		return false
	}
	var unused, stale []string
	for id, file := range decls {
		switch {
		case !called(id) && reserved[id] == "":
			unused = append(unused, id+" ("+file+")")
		case called(id) && reserved[id] != "":
			stale = append(stale, id+" ("+reserved[id]+") has a caller")
		}
	}
	for id := range reserved {
		if _, ok := decls[id]; !ok {
			stale = append(stale, id+" is no longer declared")
		}
	}
	slices.Sort(unused)
	slices.Sort(stale)
	for _, s := range unused {
		t.Errorf("exported but no non-test caller: %s; call it, move it into a _test.go file, or delete it", s)
	}
	for _, s := range stale {
		t.Errorf("reserved identifier %s: drop it from the reserved list", s)
	}
}

// scanExports parses one non-test file. Under internal/ it records the
// file's exported top-level declarations as "pkg.Name"; everywhere it
// records which declaration references which "pkg.Name". A declaration
// outside internal/ is named by its file.
func scanExports(t *testing.T, path string, decls map[string]string, refs map[string]map[string]bool) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	slash := filepath.ToSlash(path)
	var self string // the package's own name, for files under internal/
	if rest, ok := strings.CutPrefix(slash, "internal/"); ok {
		self, _, _ = strings.Cut(rest, "/")
	}

	// Package names this file imports from internal/.
	imported := map[string]string{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		rest, ok := strings.CutPrefix(p, "repro/internal/")
		if !ok {
			continue
		}
		pkg := rest[strings.LastIndex(rest, "/")+1:]
		name := pkg
		if im.Name != nil {
			name = im.Name.Name
		}
		imported[name] = pkg
	}

	for _, decl := range f.Decls {
		// owners are the top-level names this declaration declares (a
		// method's is its receiver type); their references to
		// themselves do not count as callers.
		var owners []string
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				owners = append(owners, recvType(d.Recv.List[0].Type))
				break
			}
			owners = append(owners, d.Name.Name)
			if self != "" && d.Name.IsExported() {
				decls[self+"."+d.Name.Name] = slash
			}
		case *ast.GenDecl:
			if d.Tok == token.IMPORT {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					owners = append(owners, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						owners = append(owners, n.Name)
					}
				}
			}
			for _, o := range owners {
				if self != "" && ast.IsExported(o) {
					decls[self+"."+o] = slash
				}
			}
		}
		from := slash
		if self != "" && len(owners) == 1 {
			from = self + "." + owners[0]
		}
		ref := func(id string) {
			if refs[id] == nil {
				refs[id] = map[string]bool{}
			}
			refs[id][from] = true
		}

		// Names that a declaration introduces (struct fields,
		// parameters, methods) and field or method selectors are not
		// references to a top-level name.
		skip := map[*ast.Ident]bool{}
		if d, ok := decl.(*ast.FuncDecl); ok {
			skip[d.Name] = true
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Field:
				for _, id := range x.Names {
					skip[id] = true
				}
			case *ast.SelectorExpr:
				skip[x.Sel] = true
				if id, ok := x.X.(*ast.Ident); ok {
					if pkg, ok := imported[id.Name]; ok {
						ref(pkg + "." + x.Sel.Name)
						skip[id] = true
					}
				}
			}
			return true
		})
		if self == "" {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !skip[id] && !slices.Contains(owners, id.Name) {
				ref(self + "." + id.Name)
			}
			return true
		})
	}
}

// recvType names a method's receiver type: T, *T, T[P] or *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
