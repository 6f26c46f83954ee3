package jury_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	jury "repro"
)

// TestPublicAPIQuickstart exercises the facade exactly the way README's
// quick start does.
func TestPublicAPIQuickstart(t *testing.T) {
	net := jury.NewNetwork(jury.NetworkConfig{Seed: 1})
	link := net.AddLink(jury.LinkConfig{
		Rate:        50e6,
		Delay:       15 * time.Millisecond,
		BufferBytes: 375_000,
	})
	flow := net.AddFlow(jury.FlowConfig{
		Name: "demo",
		Path: []*jury.Link{link},
		Alg:  jury.NewController(1),
	})
	net.Run(30 * time.Second)
	st := flow.Stats()
	if st.AvgThroughputBps < 0.7*50e6 {
		t.Fatalf("quickstart throughput %v", st.AvgThroughputBps)
	}
	if st.MinRTT < 30*time.Millisecond {
		t.Fatalf("min RTT %v below propagation", st.MinRTT)
	}
}

func TestPublicAPIMathHelpers(t *testing.T) {
	// Eq. 5 inversion through the facade.
	est, ok := jury.EstimateOccupancy(1.1, 1.1/(1+0.1*0.5))
	if !ok || math.Abs(est-0.5) > 1e-9 {
		t.Fatalf("EstimateOccupancy = %v, %v", est, ok)
	}
	// Eq. 6 through the facade.
	if a := jury.PostProcess(0.2, 0.5, 0.5); a != 0.2 {
		t.Fatalf("PostProcess = %v", a)
	}
	// Eq. 9 through the facade.
	cfg := jury.DefaultConfig()
	r := jury.Reward(cfg, 0.8, 30*time.Millisecond, 30*time.Millisecond, 0, 0)
	if math.IsNaN(r) {
		t.Fatal("reward NaN")
	}
}

func TestPublicAPIConfigs(t *testing.T) {
	cfg := jury.DefaultConfig()
	if cfg.Interval != 30*time.Millisecond || cfg.Alpha != 0.025 {
		t.Fatalf("Table 2 defaults wrong: %+v", cfg)
	}
	d := jury.DefaultTrainingDomain()
	if d.MaxBandwidth != 100e6 || d.MaxFlows != 10 {
		t.Fatalf("Table 1 defaults wrong: %+v", d)
	}
	if opts := jury.DefaultTrainOptions(1); opts.Actors != 8 {
		t.Fatalf("train options wrong: %+v", opts)
	}
}

func TestPublicAPICustomPolicy(t *testing.T) {
	cfg := jury.DefaultConfig()
	cfg.Seed = 9
	ctrl := jury.NewControllerWithPolicy(cfg, jury.NewReferencePolicy())
	if ctrl.Name() != "jury" {
		t.Fatal("controller identity wrong")
	}
	var _ jury.Policy = jury.NewReferencePolicy()
	var _ jury.Policy = &jury.NNPolicy{}
}

// TestNoTestOnlyAPI lists the exported identifiers that no non-test code
// references — no `jury` subcommand, no bench workload, no internal caller
// and not the root facade — and compares the list with
// testdata/test_only_api.txt. That file names the few inspection accessors
// kept on purpose; the test fails on any identifier missing from it, and on
// any listed one that has gained a non-test caller or no longer exists, so
// the list can only shrink. A method is exempt when its type implements an
// interface that names it (declared in the module or in a standard package
// it imports): callers may dispatch through the interface, which go/types
// cannot attribute to the concrete method.
func TestNoTestOnlyAPI(t *testing.T) {
	got, err := testOnlyAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	want, err := readAPIList("testdata/test_only_api.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("%s is exported but no non-test code references it: delete it, or unexport it", id)
		}
	}
	have := map[string]bool{}
	for _, id := range got {
		have[id] = true
	}
	for id := range want {
		if !have[id] {
			t.Errorf("%s is listed in testdata/test_only_api.txt but is gone or has a non-test caller: drop it from the list", id)
		}
	}
}

func readAPIList(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ids := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			ids[line] = true
		}
	}
	return ids, nil
}

// apiLoader type-checks the module's packages from their non-test files and
// resolves standard-library imports with the source importer, so every
// object has one identity across packages.
type apiLoader struct {
	fset   *token.FileSet
	module string // module path, e.g. "repro"
	root   string
	std    types.ImporterFrom
	pkgs   map[string]*types.Package
	infos  []*types.Info
}

func (l *apiLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *apiLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.ImportFrom(path, dir, mode)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	return l.load(path, filepath.Join(l.root, rel))
}

func (l *apiLoader) load(path, dir string) (*types.Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	// A method's receiver names its own type; that is not a use of the type.
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						delete(info.Uses, id)
					}
					return true
				})
			}
		}
	}
	l.pkgs[path] = pkg
	l.infos = append(l.infos, info)
	return pkg, nil
}

// testOnlyAPI returns, sorted, the exported package-level identifiers and
// exported methods of the module's packages below the root (cmd/, internal/
// and bench/) that no non-test file of the module references, each written
// as "<dir>.<Name>" or "<dir>.<Type>.<Method>".
func testOnlyAPI(root string) ([]string, error) {
	fset := token.NewFileSet()
	l := &apiLoader{fset: fset, module: "repro", root: root, pkgs: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		path := l.module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		var noGo *build.NoGoError
		if _, err := l.ImportFrom(path, root, 0); err != nil && !errors.As(err, &noGo) {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	used := map[types.Object]bool{}
	for _, info := range l.infos {
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
	}
	// Every non-empty interface the module declares or spells out, and every
	// one declared by a standard package it imports.
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	for _, info := range l.infos {
		for _, tv := range info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				addIface(tv.Type)
			}
		}
	}
	// dispatched reports whether a method of T may be called through an
	// interface T or *T implements.
	dispatched := func(named *types.Named, method string) bool {
		for _, it := range ifaces {
			if !types.Implements(named, it) && !types.Implements(types.NewPointer(named), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method {
					return true
				}
			}
		}
		return false
	}

	var out []string
	for path, pkg := range l.pkgs {
		if path == l.module {
			continue // the root facade is public API by definition
		}
		dir := strings.TrimPrefix(path, l.module+"/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				out = append(out, dir+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !dispatched(named, m.Name()) {
					out = append(out, dir+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
