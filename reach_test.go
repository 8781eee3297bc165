package ides_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The reachability gate: every non-test top-level declaration outside
// bench/ must be reachable from something that ships, or be on the
// allow-list with the reason it stays. It is the orphan scan PRs 14 and
// 17 did by hand, with the standard library only.
//
// Roots are every main and init, every exported name of the ides.go
// façade, and the exported package-level names of the test-support
// packages that tests keep. From a reachable declaration everything its
// source mentions is reachable. A method is reachable when reachable code
// selects a method of its name on anything (interface dispatch is not
// resolved, names are), when its type is reachable and a standard-library
// interface has a method of its name (error, fmt.Stringer, net.Conn,
// flag.Value: the caller is outside the tree), or — for the test-support
// packages, whose callers are tests — when tests keep its name.
//
// Tests keep an exported name of simnet or testutil when a _test.go file
// outside that package selects it: a fabric or helper API only its own
// tests call serves no one. harness's own tests are the scenario suites
// it exists for, so every exported harness name is a root and any
// _test.go file keeps a harness method.
const (
	reachModule    = "github.com/ides-go/ides"
	reachAllowFile = "testdata/reachability_allow.txt"
)

// reachTestSupport maps each test-support package to whether its own
// tests keep its API; true also makes every exported package-level name
// a root.
var reachTestSupport = map[string]bool{
	reachModule + "/internal/harness":  true,
	reachModule + "/internal/simnet":   false,
	reachModule + "/internal/testutil": false,
}

// reachPkg is one directory's non-test files, parsed and — on demand,
// through reachTree.Import — type-checked. Its _test.go files are parsed
// beside them and type-checked only by the options gate.
type reachPkg struct {
	path      string
	files     []*ast.File
	testFiles []*ast.File
	types     *types.Package
	info      *types.Info
}

// reachTree is the parsed tree. As a types.Importer it resolves the
// module's own import paths to its packages and everything else through
// the standard library's source importer. Once loadReachTree returns it
// is read-only: the three gates share one.
type reachTree struct {
	fset *token.FileSet
	pkgs map[string]*reachPkg
	std  types.Importer
	// stdIfaceMethods are the method names of every interface declared in
	// a package imported from outside the module, and of error.
	stdIfaceMethods map[string]bool
	// testSelected maps each name a _test.go file selects, collected
	// syntactically, to the packages whose tests select it.
	testSelected map[string]map[string]bool
	err          error // the first type error while loading
}

func (tr *reachTree) Import(p string) (*types.Package, error) {
	rp := tr.pkgs[p]
	if rp == nil {
		pkg, err := tr.std.Import(p)
		if err == nil {
			tr.noteInterfaces(pkg)
		}
		return pkg, err
	}
	if rp.types == nil {
		var err error
		rp.types, rp.info, err = tr.check(p, rp.files, tr)
		if tr.err == nil {
			tr.err = err
		}
	}
	return rp.types, nil
}

// check type-checks files as package p and returns the first type error.
func (tr *reachTree) check(p string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	var first error
	conf := types.Config{Importer: imp, Error: func(err error) {
		if first == nil {
			first = err
		}
	}}
	pkg, _ := conf.Check(p, tr.fset, files, info)
	return pkg, info, first
}

// reachLoaded imports from a loaded tree without adding to it: every
// module package is checked already, and a standard package that only
// tests import stays out of stdIfaceMethods, whose names are roots of the
// reachability gate.
type reachLoaded struct{ tr *reachTree }

func (l reachLoaded) Import(p string) (*types.Package, error) {
	if rp := l.tr.pkgs[p]; rp != nil {
		return rp.types, nil
	}
	return l.tr.std.Import(p)
}

func (tr *reachTree) noteInterfaces(pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				tr.stdIfaceMethods[it.Method(i).Name()] = true
			}
		}
	}
}

// reachShared is the tree the three gates read, loaded once per test
// binary: parsing and type-checking it, standard library from source, is
// most of what each gate costs.
var reachShared struct {
	once sync.Once
	tr   *reachTree
	err  error
}

// sharedReachTree returns the tree under the module root, loading it on
// first use.
func sharedReachTree(t *testing.T) *reachTree {
	t.Helper()
	reachShared.once.Do(func() { reachShared.tr, reachShared.err = loadReachTree(".") })
	if reachShared.err != nil {
		t.Fatal(reachShared.err)
	}
	return reachShared.tr
}

// loadReachTree parses every Go file under root that the default build
// would compile, bench/ (a module of its own, nested under the root
// module's path) included, and type-checks the non-test files.
func loadReachTree(root string) (*reachTree, error) {
	fset := token.NewFileSet()
	tr := &reachTree{
		fset:            fset,
		pkgs:            map[string]*reachPkg{},
		std:             importer.ForCompiler(fset, "source", nil),
		stdIfaceMethods: map[string]bool{"Error": true},
		testSelected:    map[string]map[string]bool{},
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (name[0] == '.' || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		ip := path.Join(reachModule, filepath.ToSlash(rel))
		rp := tr.pkgs[ip]
		if rp == nil {
			rp = &reachPkg{path: ip}
			tr.pkgs[ip] = rp
		}
		if !strings.HasSuffix(p, "_test.go") {
			rp.files = append(rp.files, f)
			return nil
		}
		rp.testFiles = append(rp.testFiles, f)
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if tr.testSelected[sel.Sel.Name] == nil {
					tr.testSelected[sel.Sel.Name] = map[string]bool{}
				}
				tr.testSelected[sel.Sel.Name][ip] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p := range tr.pkgs {
		tr.Import(p) //nolint:errcheck // type errors land in tr.err
	}
	if tr.err != nil {
		return nil, fmt.Errorf("type-checking the tree: %w", tr.err)
	}
	return tr, nil
}

// testKept reports whether tests keep the name of a declaration in
// package p: p is a test-support package and a _test.go file selects the
// name — for simnet and testutil, one outside p.
func (tr *reachTree) testKept(p, name string) bool {
	own, support := reachTestSupport[p]
	if !support {
		return false
	}
	for q := range tr.testSelected[name] {
		if own || q != p {
			return true
		}
	}
	return false
}

// reachDecl is one top-level declaration: a function, a method, a type,
// or one name of a var or const declaration.
type reachDecl struct {
	obj  types.Object
	pkg  *reachPkg
	node ast.Node // what mentioning obj makes reachable
	recv *types.TypeName
	root bool
}

// name is the allow-list spelling: the package path inside the module,
// then Name or Type.Method.
func (d *reachDecl) name() string {
	if d.obj == nil {
		return "" // init and main: roots, never reported
	}
	n := d.obj.Name()
	if d.recv != nil {
		n = d.recv.Name() + "." + n
	}
	return strings.TrimPrefix(strings.TrimPrefix(d.pkg.path, reachModule), "/") + "." + n
}

func (tr *reachTree) decls() map[types.Object]*reachDecl {
	out := map[types.Object]*reachDecl{}
	for _, rp := range tr.pkgs {
		allExported := reachTestSupport[rp.path]
		for _, f := range rp.files {
			facade := rp.path == reachModule && strings.HasSuffix(tr.fset.File(f.Pos()).Name(), "ides.go")
			add := func(id *ast.Ident, node ast.Node) *reachDecl {
				obj := rp.info.Defs[id]
				if obj == nil || id.Name == "_" {
					return nil
				}
				root := id.IsExported() && (facade || allExported || tr.testKept(rp.path, id.Name))
				d := &reachDecl{obj: obj, pkg: rp, node: node, root: root}
				out[obj] = d
				return d
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil && (decl.Name.Name == "init" || decl.Name.Name == "main" && rp.types.Name() == "main") {
						// init has no object to look up; main is one by fiat.
						out[types.NewFunc(decl.Pos(), rp.types, decl.Name.Name, nil)] = &reachDecl{pkg: rp, node: decl, root: true}
						continue
					}
					d := add(decl.Name, decl)
					if d != nil && decl.Recv != nil {
						d.root = false
						recv := d.obj.Type().(*types.Signature).Recv().Type()
						if p, ok := recv.(*types.Pointer); ok {
							recv = p.Elem()
						}
						d.recv = recv.(*types.Named).Obj()
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, spec)
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								add(id, spec)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// unreachable returns the allow-list names of the declarations outside
// bench/ that nothing reachable mentions, with the declarations named in
// kept as further roots: what the allow-list keeps, keeps what it uses.
func (tr *reachTree) unreachable(decls map[types.Object]*reachDecl, kept map[string]bool) []string {
	byName := map[string][]*reachDecl{}
	byRecv := map[types.Object][]*reachDecl{}
	for _, d := range decls {
		if d.recv != nil {
			byName[d.obj.Name()] = append(byName[d.obj.Name()], d)
			byRecv[d.recv] = append(byRecv[d.recv], d)
		}
	}
	reached := map[*reachDecl]bool{}
	selected := map[string]bool{}
	var work []*reachDecl
	reach := func(d *reachDecl) {
		if d != nil && !reached[d] {
			reached[d] = true
			work = append(work, d)
		}
	}
	sel := func(name string) {
		if !selected[name] {
			selected[name] = true
			for _, m := range byName[name] {
				reach(m)
			}
		}
	}
	for _, d := range decls {
		if d.root || kept[d.name()] {
			reach(d)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		if d.recv != nil {
			reach(decls[d.recv])
		}
		// A reached type's own methods that need no selection in the tree.
		for _, m := range byRecv[d.obj] {
			if tr.stdIfaceMethods[m.obj.Name()] || tr.testKept(m.pkg.path, m.obj.Name()) {
				reach(m)
			}
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch obj := d.pkg.info.Uses[id].(type) {
			case *types.Func:
				if obj.Type().(*types.Signature).Recv() != nil {
					sel(obj.Name())
				} else {
					reach(decls[obj])
				}
			case nil:
			default:
				reach(decls[obj])
			}
			return true
		})
	}
	var out []string
	for _, d := range decls {
		if !reached[d] && !strings.HasPrefix(d.pkg.path, reachModule+"/bench") {
			out = append(out, d.name())
		}
	}
	sort.Strings(out)
	return out
}

// readReachAllow parses the allow-list: one "name — reason" per line,
// '#' comments and blank lines aside.
func readReachAllow(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open(reachAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %q carries no reason (want \"name — reason\")", reachAllowFile, line)
		}
		allow[name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// TestEveryDeclarationIsReachable fails on a declaration nothing that
// ships can reach, unless the allow-list says why it stays — and on an
// allow-list line that no longer excuses anything, so the list stays the
// tree's true unreachable floor.
func TestEveryDeclarationIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree and the standard library it imports from source")
	}
	allow := readReachAllow(t)
	tr := sharedReachTree(t)
	decls := tr.decls()
	excused := map[string]bool{}
	for _, name := range tr.unreachable(decls, nil) {
		excused[name] = true
	}
	for name := range allow {
		if !excused[name] {
			t.Errorf("%s: %s is reachable or gone; drop the line", reachAllowFile, name)
		}
	}
	for _, name := range tr.unreachable(decls, allow) {
		t.Errorf("%s is unreachable from every main, init, façade export and test-support API: delete it, or add it to %s with the reason it stays", name, reachAllowFile)
	}
}

// The options gate: every option must have a writer somewhere in the
// tree. An option is a field of a non-test struct type outside bench/
// whose name ends in Config, Options or Overrides. A writer is a keyed
// composite-literal element or an assignment through a selector that
// resolves to the field, in any file — tests, examples and bench/
// included — except that in the declaring package's own non-test files
// only a composite literal counts: an assignment there is how defaults
// are filled. An option nothing sets is a configuration that has never
// run; there is no allow-list, because it has no reason to give.

// reachOption is one option: its "pkg.Type.Field" name and the package
// that declares it.
type reachOption struct {
	name string
	pkg  *reachPkg
}

// options returns every option, keyed by the position of its declaration
// — the one identity a field keeps when its package is type-checked a
// second time together with its tests.
func (tr *reachTree) options() map[token.Pos]reachOption {
	out := map[token.Pos]reachOption{}
	for _, rp := range tr.pkgs {
		if strings.HasPrefix(rp.path, reachModule+"/bench") {
			continue
		}
		dir := strings.TrimPrefix(strings.TrimPrefix(rp.path, reachModule), "/")
		for _, f := range rp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				spec, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				tn := spec.Name.Name
				st, ok := spec.Type.(*ast.StructType)
				if !ok || !(strings.HasSuffix(tn, "Config") || strings.HasSuffix(tn, "Options") || strings.HasSuffix(tn, "Overrides")) {
					return true
				}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						out[id.Pos()] = reachOption{dir + "." + tn + "." + id.Name, rp}
					}
				}
				return true
			})
		}
	}
	return out
}

// unsetOptions returns the names of the options without a writer, the
// number of options, and the first type error in the tests.
func (tr *reachTree) unsetOptions() (unset []string, total int, err error) {
	options := tr.options()
	written := map[token.Pos]bool{}
	// note marks what files write; own is the package whose non-test
	// files they are, nil for tests.
	note := func(files []*ast.File, info *types.Info, own *reachPkg) {
		write := func(id *ast.Ident, assigned bool) {
			v, ok := info.Uses[id].(*types.Var)
			if !ok || !v.IsField() || assigned && own != nil && options[v.Pos()].pkg == own {
				return
			}
			written[v.Pos()] = true
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						write(id, false)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							write(sel.Sel, true)
						}
					}
				}
				return true
			})
		}
	}
	for _, rp := range tr.pkgs {
		note(rp.files, rp.info, rp)
		// In-package tests are checked with the package they extend,
		// external ones (package x_test) as a package importing it.
		var inPkg, external []*ast.File
		for _, f := range rp.testFiles {
			if f.Name.Name == rp.types.Name() {
				inPkg = append(inPkg, f)
			} else {
				external = append(external, f)
			}
		}
		check := func(p string, files []*ast.File) {
			_, info, cerr := tr.check(p, files, reachLoaded{tr})
			if err == nil {
				err = cerr
			}
			note(files, info, nil)
		}
		if len(inPkg) > 0 {
			check(rp.path, append(rp.files[:len(rp.files):len(rp.files)], inPkg...))
		}
		if len(external) > 0 {
			check(rp.path+"_test", external)
		}
	}
	for pos, o := range options {
		if !written[pos] {
			unset = append(unset, o.name)
		}
	}
	sort.Strings(unset)
	return unset, len(options), err
}

// TestEveryOptionIsSet fails on an option no file of the tree sets.
func TestEveryOptionIsSet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree, tests included, and the standard library it imports from source")
	}
	unset, total, err := sharedReachTree(t).unsetOptions()
	if err != nil {
		t.Fatalf("type-checking the tests: %v", err)
	}
	t.Logf("option fields: %d", total)
	for _, name := range unset {
		t.Errorf("%s is set by nothing — no program, example, benchmark or test: make it a constant and delete the field, or give it a caller", name)
	}
}

// The flags gate: every flag a binary defines must be passed by a test
// that runs the binary. A flag is a call, in a package under cmd/ or in
// internal/cli, of a function or method of the standard flag package that
// takes a name and a usage (flag.Int, fs.Duration, flag.Var…); a cmd
// package also owns the flags of every internal/cli function it calls.
// The test that runs the binaries is TestBinaries, and what it passes is
// its binaryCommands table (binaries_test.go). A flag nothing passes is a
// setting that has never been in effect; there is no allow-list here
// either.

// reachFlag is one flag definition.
type reachFlag struct {
	name string
	pos  token.Pos
}

// flagDefs returns the flags node defines and the functions of cli (nil
// when rp is cli itself) it calls.
func (rp *reachPkg) flagDefs(node ast.Node, cli *reachPkg) (defs []reachFlag, calls []types.Object) {
	ast.Inspect(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := rp.info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if cli != nil && fn.Pkg() == cli.types {
			calls = append(calls, fn)
		}
		if fn.Pkg().Path() != "flag" {
			return true
		}
		params := fn.Type().(*types.Signature).Params()
		nameArg, usage := -1, false
		for i := 0; i < params.Len(); i++ {
			switch params.At(i).Name() {
			case "name":
				nameArg = i
			case "usage":
				usage = true
			}
		}
		if nameArg < 0 || !usage {
			return true // Parse, NArg, Set, NewFlagSet…
		}
		name := "(a name that is not a string literal)"
		if lit, ok := call.Args[nameArg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, _ = strconv.Unquote(lit.Value)
		}
		defs = append(defs, reachFlag{name, call.Pos()})
		return true
	})
	return defs, calls
}

// flags returns what each binary under cmd/ can be passed — its own
// definitions and those of the internal/cli groups it registers — and
// the number of definitions.
func (tr *reachTree) flags() (byBinary map[string][]reachFlag, total int) {
	cli := tr.pkgs[reachModule+"/internal/cli"]
	groups := map[types.Object][]reachFlag{}
	for _, f := range cli.files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				defs, _ := cli.flagDefs(fd, nil)
				groups[cli.info.Defs[fd.Name]] = defs
				total += len(defs)
			}
		}
	}
	byBinary = map[string][]reachFlag{}
	for _, rp := range tr.pkgs {
		if !strings.HasPrefix(rp.path, reachModule+"/cmd/") {
			continue
		}
		bin := path.Base(rp.path)
		for _, f := range rp.files {
			defs, calls := rp.flagDefs(f, cli)
			total += len(defs)
			byBinary[bin] = append(byBinary[bin], defs...)
			for _, fn := range calls {
				byBinary[bin] = append(byBinary[bin], groups[fn]...)
			}
		}
	}
	return byBinary, total
}

// TestEveryFlagIsPassed fails on a flag that TestBinaries passes to no
// process of the binary that defines it.
func TestEveryFlagIsPassed(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree and the standard library it imports from source")
	}
	passed := map[string]map[string]bool{}
	for _, c := range binaryCommands(func(name string) string { return name }, "") {
		if passed[c.bin] == nil {
			passed[c.bin] = map[string]bool{}
		}
		for _, arg := range c.args {
			if name, ok := strings.CutPrefix(arg, "-"); ok {
				name, _, _ = strings.Cut(name, "=")
				passed[c.bin][name] = true
			}
		}
	}
	tr := sharedReachTree(t)
	byBinary, total := tr.flags()
	t.Logf("flags: %d", total)
	var unpassed []string
	for bin, flags := range byBinary {
		for _, f := range flags {
			if !passed[bin][f.name] {
				unpassed = append(unpassed, bin+" -"+f.name+" ("+tr.fset.Position(f.pos).String()+")")
			}
		}
	}
	sort.Strings(unpassed)
	for _, f := range unpassed {
		t.Errorf("%s is passed by no row of binaryCommands, so no test runs the binary with it: pass it in binaries_test.go, or make it the constant it defaults to", f)
	}
}
