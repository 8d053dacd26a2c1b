package divot

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports are the exported functions and methods under internal/
// that no program calls but a test of live behaviour drives or compares
// against. Keys are "<dir>.<Name>" or "<dir>.<Recv>.<Name>".
var testOnlyExports = map[string]string{
	"internal/itdr.APC.Probability":         "the APC forward model the inverse-map tests compare against",
	"internal/fingerprint.Store.Forget":     "drops one enrollment so TestSpotCheckRequiresBothEnrollments can lose one endpoint",
	"internal/memctl.Device.InjectBitError": "flips a stored bit for the facade's ECC-repair test",
	"internal/store.NewMemory":              "the in-memory Backend fake the daemon tests persist to",
	"internal/store.Memory.CorruptSnapshot": "damages a stored snapshot for the daemon's cold-restart tests",
	"internal/store.Memory.AuditLines":      "reads the audit log back for the daemon's audit tests",
	"internal/store.Dir.HistoryWAL":         "exposes the history WAL for the daemon's torn-tail tests",
	"internal/store.WAL.TruncatedBytes":     "reports how much a torn tail cut, checked by the daemon's WAL tests",
	"internal/bus.NewLinkEncoded":           "builds the protected-lane model whose tests ground the 25 % data-lane trigger density of the latency figure",
	"internal/signal.MaxAbs":                "the peak-difference measure the reflection and waveform tests compare with",
	"internal/signal.Sub":                   "the waveform difference the physics, instrument and attack tests localize changes with",
}

// stdInterfaceMethods are method names that satisfy standard-library
// interfaces, which the standard library calls rather than the repository.
var stdInterfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true, "Seek": true, "ReadFrom": true, "WriteTo": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "Timeout": true, "Temporary": true,
}

// TestNoTestOnlyExports fails for each exported function or method declared
// under internal/ that no non-test Go file in the repository (the loadbench
// module included) references outside its own declaration. A package-level
// function counts as referenced by a bare identifier in its own package or a
// qualified one (pkg.Name) through an import of it; a method, whose receiver
// type needs type checking to resolve, counts as referenced by any identifier
// of its name. Comments never count.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ key, name string }
	var funcs, methods []decl
	usedName := map[string]bool{} // any identifier, for methods
	usedFunc := map[string]bool{} // "<dir>.<Name>", for package-level functions
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name -> repository directory
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(ip, "divot/")
			if !ok {
				continue
			}
			name := pathpkg.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = rel
		}
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fn, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !strings.HasPrefix(dir, "internal/") || !fn.Name.IsExported() {
				continue
			}
			if fn.Recv == nil {
				funcs = append(funcs, decl{dir + "." + fn.Name.Name, fn.Name.Name})
			} else if !stdInterfaceMethods[fn.Name.Name] {
				key := dir + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				methods = append(methods, decl{key, fn.Name.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok {
					if rel, ok := imports[pkg.Name]; ok {
						usedFunc[rel+"."+x.Sel.Name] = true
						usedName[x.Sel.Name] = true
						return false
					}
				}
			case *ast.Ident:
				if !declared[x] {
					usedFunc[dir+"."+x.Name] = true
					usedName[x.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	kept := map[string]bool{}
	check := func(d decl, used bool) {
		if used {
			return
		}
		if _, ok := testOnlyExports[d.key]; ok {
			kept[d.key] = true
			return
		}
		dead = append(dead, d.key)
	}
	for _, d := range funcs {
		check(d, usedFunc[d.key])
	}
	for _, d := range methods {
		check(d, usedName[d.name])
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s is exported but only tests call it: delete it or give it a program caller", k)
	}
	for k := range testOnlyExports {
		if !kept[k] {
			t.Errorf("testOnlyExports lists %s, which is gone or now has a program caller", k)
		}
	}
}

func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
