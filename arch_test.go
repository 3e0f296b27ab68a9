package distperm_test

import (
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
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestArchitecture holds the shapes the program keeps so that earlier
// deletions stay made. Each rule is a subtest named for the PR that set it.
// It runs on the tree, where it must pass, and with each of its plants, a
// synthetic file added to the tree (in place of the file at its path, if
// any), where it must fail.
func TestArchitecture(t *testing.T) {
	fset := token.NewFileSet()
	a := &archTree{fset: fset, imp: importer.ForCompiler(fset, "source", nil), files: map[string]*srcFile{}, infos: map[string]*types.Info{}}
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			for _, hit := range a.run(t, r, plant{}) {
				t.Errorf("%s: breaks the rule", hit)
			}
			for _, p := range r.plants {
				if len(a.run(t, r, p)) == 0 {
					t.Errorf("the rule passes with this plant at %s:\n%s", p.path, p.src)
				}
			}
		})
	}
}

// An archRule reads the files under roots that keep selects (nil: all). It
// matches Go syntax, and types where typed, and text through grep where
// syntax does not reach.
type archRule struct {
	name   string
	roots  []string
	keep   func(path string) bool
	typed  bool
	check  func(f *srcFile, info *types.Info) []token.Pos
	plants []plant
}

type plant struct{ path, src string }

type srcFile struct {
	path string
	src  []byte
	ast  *ast.File // nil unless Go source
	base token.Pos // where a non-Go file starts in the file set
}

func goSrc(p string) bool  { return strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") }
func goFile(p string) bool { return strings.HasSuffix(p, ".go") && p != "arch_test.go" }

// find returns where the nodes of f that match lie.
func find(f *srcFile, match func(ast.Node) bool) (hits []token.Pos) {
	if f.ast != nil {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if n != nil && match(n) {
				hits = append(hits, n.Pos())
			}
			return true
		})
	}
	return hits
}

// grep returns where the pattern matches what syntax does not see: a Go
// file's comments, string literals and identifiers' names, or all of any
// other file.
func grep(f *srcFile, pattern string) (hits []token.Pos) {
	re := regexp.MustCompile(pattern)
	if !re.Match(f.src) { // what matches a part of f matches f
		return nil
	}
	if f.ast == nil {
		return []token.Pos{f.base + token.Pos(re.FindIndex(f.src)[0])}
	}
	for _, g := range f.ast.Comments {
		for _, c := range g.List {
			if m := re.FindStringIndex(c.Text); m != nil {
				hits = append(hits, c.Slash+token.Pos(m[0]))
			}
		}
	}
	return append(hits, find(f, func(n ast.Node) bool {
		l, isLit := n.(*ast.BasicLit)
		id, isID := n.(*ast.Ident)
		return isLit && l.Kind == token.STRING && re.MatchString(l.Value) || isID && re.MatchString(id.Name)
	})...)
}

func text(pattern string) func(*srcFile, *types.Info) []token.Pos {
	return func(f *srcFile, _ *types.Info) []token.Pos { return grep(f, pattern) }
}

// noImport refuses an import of the package at p, however written, and
// the quoted path anywhere.
func noImport(p string) func(*srcFile, *types.Info) []token.Pos {
	return func(f *srcFile, _ *types.Info) []token.Pos {
		return append(grep(f, regexp.QuoteMeta(strconv.Quote(p))), find(f, func(n ast.Node) bool {
			s, ok := n.(*ast.ImportSpec)
			return ok && importPath(s) == p
		})...)
	}
}

func importPath(s *ast.ImportSpec) string { p, _ := strconv.Unquote(s.Path.Value); return p }

// outside drops the hits in n, and in its doc comment if n is a FuncDecl.
func outside(hits []token.Pos, n ast.Node) []token.Pos {
	lo := n.Pos()
	if fd, ok := n.(*ast.FuncDecl); ok && fd.Doc != nil {
		lo = fd.Doc.Pos()
	}
	return slices.DeleteFunc(hits, func(p token.Pos) bool { return lo <= p && p < n.End() })
}

// selects returns where f names one of names in the package at p, under
// whatever name f imports it.
func selects(f *srcFile, p string, names ...string) []token.Pos {
	as := ""
	for _, s := range f.ast.Imports {
		if importPath(s) == p {
			as = path.Base(p)
			if s.Name != nil {
				as = s.Name.Name
			}
		}
	}
	return find(f, func(n ast.Node) bool {
		s, ok := n.(*ast.SelectorExpr)
		return ok && types.ExprString(s.X) == as && slices.Contains(names, s.Sel.Name)
	})
}

// declares returns where f declares a package-level name, or a method as
// Type.name, that the pattern matches.
func declares(f *srcFile, pattern string) (hits []token.Pos) {
	re := regexp.MustCompile(pattern)
	if f.ast == nil {
		return nil
	}
	for _, d := range f.ast.Decls {
		var ids []*ast.Ident
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil {
				recv, _, _ := strings.Cut(strings.TrimLeft(types.ExprString(d.Recv.List[0].Type), "*"), "[")
				name = recv + "." + name
			}
			ids = append(ids, &ast.Ident{NamePos: d.Name.Pos(), Name: name})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok {
					ids = append(ids, ts.Name)
				} else if vs, ok := s.(*ast.ValueSpec); ok {
					ids = append(ids, vs.Names...)
				}
			}
		}
		for _, id := range ids {
			if re.MatchString(id.Name) {
				hits = append(hits, id.Pos())
			}
		}
	}
	return hits
}

// The deny-list's identifiers (any use; dpserver_coalescer_ is a metric-name
// prefix), its declarations (a package-level name, whole where it ends in $,
// else as a prefix, or a method as Type.name) and its text as CI spelled it.
// MutableIndex.Overlay, (*Engine).checkpointOnce, siteRanges.lowerBound and
// the package-level lowerBound are live under deleted names, and pass.
const (
	deletedNames = `AttachWAL|pendingBatch|batchKey|FlushReasons|dpserver_coalescer_|NewMutableEngineFrom|BaseRelease|RegisterPartitioner|RunLoad|LoadConfig|runLoadgen|scanTilePoints|mutSnapshot|deltaPoint|ParsePrometheus|runServe|serveConfig|AppendWirePoint|DecodeWirePoint|walCkptMagic|buildPermTableBy|buildPermTableRange|engineAPI|MutableBackend|daemonConfig`
	deletedDecls = `^(inferSpec|shardedBase|toWire|fromWire|buildServer|checkpointOnce|Overlay$|Lint$|PermIndex\.knnBatch|bucketBounds\.lowerBound|\w+\.assemble$)`
	deletedText  = `func (inferSpec|shardedBase|toWire|fromWire|buildServer|checkpointOnce|Overlay\(|Lint\()|func \(\w+ \*?(PermIndex\) knnBatch|bucketBounds\) lowerBound)|\) assemble\(|func\(b int, run \[\]float64\)`
)

var archRules = []archRule{{
	// internal/sisap turns bytes into numbers through cursor.go alone, where
	// binary.Read and binary.Write would decide it per call, by reflection.
	name: "PR19_one_cursor", roots: []string{"internal/sisap"}, keep: goSrc,
	check: func(f *srcFile, _ *types.Info) []token.Pos {
		return append(selects(f, "encoding/binary", "Read", "Write"), grep(f, `binary\.(Read|Write)\(`)...)
	},
	plants: []plant{
		{"internal/sisap/plant.go", "package sisap\nimport (\"encoding/binary\"; \"io\")\nfunc plant(r io.Reader, v *uint32) error { return binary.Read(r, binary.LittleEndian, v) }\n"},
		{"internal/sisap/plant.go", "package sisap\nimport (bin \"encoding/binary\"; \"io\")\nfunc plant(r io.Reader, v *uint32) error { return bin.Read(r, bin.LittleEndian, v) }\n"},
	},
}, {
	// The WAL's record and checkpoint codec touches no byte order of its own.
	name: "PR38_walrec_through_cursor", roots: []string{"internal/sisap/walrec.go"}, check: noImport("encoding/binary"),
	plants: []plant{{"internal/sisap/walrec.go", "package sisap\nimport \"encoding/binary\"\nvar order = binary.LittleEndian\n"}},
}, {
	// sqSums is the one L2 kernel, so nothing else in internal/sisap adds a
	// floating-point square to a sum (Spearman rho squares integer ranks).
	name: "PR55_one_L2_kernel", roots: []string{"internal/sisap"}, keep: goSrc, typed: true,
	check: func(f *srcFile, info *types.Info) []token.Pos {
		hits := append(grep(f, `\+= [a-z][a-zA-Z0-9]* ?\* ?[a-z][a-zA-Z0-9]*\b`), find(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			sq := false
			if ok && as.Tok == token.ADD_ASSIGN {
				ast.Inspect(as.Rhs[0], func(n ast.Node) bool {
					b, ok := n.(*ast.BinaryExpr)
					sq = sq || ok && b.Op == token.MUL && types.ExprString(b.X) == types.ExprString(b.Y) && isFloat(info, b)
					return true
				})
			}
			return sq
		})...)
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "sqSums" {
				hits = outside(hits, fd)
			}
		}
		return hits
	},
	plants: []plant{
		{"internal/sisap/plant.go", "package sisap\nfunc plant(a, b []float64) (s float64) {\n\tfor i := range a {\n\t\tt := a[i] - b[i]\n\t\ts += t * t\n\t}\n\treturn s\n}\n"},
		{"internal/sisap/plant.go", "package sisap\nfunc sqSumsWide(r, v []float64) (s float64) {\n\tfor j, x := range v {\n\t\ts += (r[j] - x) * (r[j] - x)\n\t}\n\treturn s\n}\n"},
	},
}, {
	// PFR4 is the one frozen revision read; retiredFrozen refuses the others.
	name: "PR53_one_frozen_revision", roots: []string{"internal"}, keep: goSrc, check: text(`permFrozenV[23]Tag`),
	plants: []plant{{"internal/sisap/plant.go", "package sisap\nvar plant = permFrozenV3Tag\n"}},
}, {
	// A self-contained frozen store has no Points, so a point is read through
	// DB.Point: only sisap.go reads sisap.DB's field, and others only set it.
	name: "PR54_points_through_DB_Point", roots: []string{"internal/sisap", "pkg/distperm"}, typed: true,
	keep: func(p string) bool { return !strings.HasSuffix(p, "_test.go") && p != "internal/sisap/sisap.go" },
	check: func(f *srcFile, info *types.Info) []token.Pos {
		set := map[ast.Node]bool{}
		return append(grep(f, `\.Points\b`), find(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, l := range as.Lhs {
					set[l] = true
				}
			}
			s, ok := n.(*ast.SelectorExpr)
			return ok && !set[s] && dbPoints(info, s.Sel)
		})...)
	},
	plants: []plant{
		{"pkg/distperm/plant.go", "package distperm\nimport \"distperm/internal/sisap\"\nfunc plant(seg struct{ db *sisap.DB }) any { return seg.db.Points[0] }\n"},
		{"pkg/distperm/plant.go", "package distperm\nimport \"distperm/internal/sisap\"\ntype storeDB = sisap.DB\nfunc plant(dst, src *storeDB) { dst.Points = src.Points }\n"},
	},
}, {
	// The bench gate compares a change with its parent in one job: no anchor
	// normalises a timing, no committed timing gates, no row is excused.
	name: "PR52_paired_bench_gate", roots: []string{"cmd", ".github/workflows"},
	check:  text(`yardstick|anchorRatios|-max-regress|BENCH_pr|placement differs|findPlacement`),
	plants: []plant{{"cmd/benchgate/plant.go", "package main\nvar anchorRatios map[string]float64\n"}},
}, {
	// A query walks a sharded view's segments into one collector, so the
	// engine keeps no per-segment answers and merges none.
	name: "PR39_one_collector", roots: []string{"pkg/distperm"}, check: text(`MergeKNN|\bperSeg\b`),
	plants: []plant{{"pkg/distperm/plant.go", "package distperm\nvar perSeg [][]int\n"}},
}, {
	// dpserver.New is the one server constructor; NewFromIndex and
	// NewFromMutable are shims only perflab calls.
	name: "PR43_one_server_constructor", roots: []string{"."},
	keep:   func(p string) bool { return goFile(p) && p != "pkg/dpserver/dpserver.go" },
	check:  text(`NewFrom(Index|Mutable)`),
	plants: []plant{{"cmd/distpermd/plant.go", "package main\nimport \"distperm/pkg/dpserver\"\nvar plant = dpserver.NewFromIndex\n"}},
}, {
	// A query request is one Engine.Search behind the admission gate and
	// nothing batches across requests: dpserver.Config's two Batch fields
	// are ignored, and only perflab sets them. (This rule spells their names
	// in parts, so that a search of the tree for them does not find it.)
	name: "PR47_admission_not_coalescing", roots: []string{"."}, keep: goFile,
	check: func(f *srcFile, _ *types.Info) []token.Pos {
		hits := grep(f, `Batch(Max|Wait)`)
		field := regexp.MustCompile(`^Batch(Max int|Wait time\.Duration)$`)
		find(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.Field); ok && f.path == "pkg/dpserver/dpserver.go" && len(fl.Names) == 1 && fl.Comment == nil && field.MatchString(fl.Names[0].Name+" "+types.ExprString(fl.Type)) {
				hits = outside(hits, fl.Names[0])
			}
			return false
		})
		return hits
	},
	plants: []plant{{"pkg/dpserver/plant.go", "package dpserver\nfunc plant(c *Config) { c.Batch" + "Wait = 1 }\n"}},
}, {
	// The admission gate is the only queue: a search runs on its caller, with
	// no engine worker pool, job channel, chunk size or busy gauge.
	name: "PR48_no_worker_pool", roots: []string{"pkg", "cmd", "internal"},
	check: func(f *srcFile, _ *types.Info) []token.Pos {
		hits := append(declares(f, `\.worker$`), grep(f, `chan job|\) worker\(\)|BusyWorkers|engineChunkCap|busy_workers`)...)
		return append(hits, find(f, func(n ast.Node) bool {
			c, ok := n.(*ast.ChanType)
			return ok && strings.HasPrefix(types.ExprString(c.Value), "job")
		})...)
	},
	plants: []plant{{"pkg/distperm/plant.go", "package distperm\ntype job struct{}\nvar jobs chan job\n"}},
}, {
	// Every index answers concurrent queries, so nothing makes or pools
	// replicas of one; sisap.QueryReplica is an identity only perflab calls.
	name: "PR49_no_replicas", roots: []string{"pkg", "cmd", "internal"},
	check: func(f *srcFile, _ *types.Info) []token.Pos {
		hits := append(declares(f, `\.Replica$`), grep(f, `Replicable|\) Replica\(\) Index|replicas sync\.Pool|QueryReplica`)...)
		hits = append(hits, find(f, func(n ast.Node) bool {
			names, typ := []*ast.Ident(nil), ast.Expr(nil)
			if fl, ok := n.(*ast.Field); ok {
				names, typ = fl.Names, fl.Type
			} else if vs, ok := n.(*ast.ValueSpec); ok {
				names, typ = vs.Names, vs.Type
			}
			return typ != nil && strings.Contains(types.ExprString(typ), "Pool") && slices.ContainsFunc(names, func(id *ast.Ident) bool { return strings.Contains(id.Name, "replicas") })
		})...)
		find(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && f.path == "internal/sisap/sisap.go" && fd.Name.Name == "QueryReplica" {
				hits = outside(hits, fd)
			}
			return false
		})
		return hits
	},
	plants: []plant{{"pkg/distperm/plant.go", "package distperm\nimport \"distperm/internal/sisap\"\nvar plant = sisap.QueryReplica(nil)\n"}},
}, {
	// distpermd has no workers flag: there are no engine workers to size.
	name: "PR48_no_workers_flag", roots: []string{"cmd/distpermd"}, keep: goFile, check: text("[\"`]workers[\"`]"),
	plants: []plant{{"cmd/distpermd/plant.go", "package main\nimport \"flag\"\nvar plant = flag.Int(\"workers\", 0, \"\")\n"}},
}, {
	// What each simplification deleted stays deleted.
	name: "PR23_deleted_names", roots: []string{"pkg", "cmd", "internal"},
	check: func(f *srcFile, _ *types.Info) []token.Pos {
		hits := append(declares(f, deletedDecls), grep(f, deletedNames+"|"+deletedText)...)
		return append(hits, find(f, func(n ast.Node) bool {
			ft, ok := n.(*ast.FuncType)
			var params []string
			for i := 0; ok && i < len(ft.Params.List); i++ {
				for range max(1, len(ft.Params.List[i].Names)) {
					params = append(params, types.ExprString(ft.Params.List[i].Type))
				}
			}
			return slices.Equal(params, []string{"int", "[]float64"})
		})...)
	},
	plants: []plant{
		{"pkg/distperm/plant.go", "package distperm\nfunc checkpointOnce() {}\n"},
		{"internal/sisap/plant.go", "package sisap\nfunc (b *bucketBounds) lowerBound() float64 { return 0 }\n"},
		{"pkg/distperm/plant.go", "package distperm\ntype engineAPI interface{}\n"},
		{"pkg/dpserver/plant.go", "package dpserver\nconst plant = \"dpserver_coalescer_flushes_total\"\n"},
		{"internal/sisap/plant.go", "package sisap\nvar plant func(i int, run []float64)\n"},
	},
}, {
	// What an index is and how a resumed store rebuilds are pkg/distperm's
	// to say: the daemon names no internal index type.
	name: "PR41_daemon_through_distperm", roots: []string{"cmd/distpermd"}, keep: goSrc, check: noImport("distperm/internal/sisap"),
	plants: []plant{{"cmd/distpermd/plant.go", "package main\nimport store `distperm/internal/sisap`\nvar plant store.DB\n"}},
}}

// isFloat reports whether e is a floating-point value; in a file the build
// leaves out, and so not type-checked, every expression may be one.
func isFloat(info *types.Info, e ast.Expr) bool {
	if info == nil {
		return true
	}
	b, ok := info.TypeOf(e).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// dbPoints reports whether id names sisap.DB's Points field (any name that
// does, in a file not type-checked).
func dbPoints(info *types.Info, id *ast.Ident) bool {
	if info == nil {
		return id.Name == "Points"
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !v.IsField() || v.Name() != "Points" || v.Pkg().Path() != "distperm/internal/sisap" {
		return false
	}
	db := v.Pkg().Scope().Lookup("DB").Type().Underlying().(*types.Struct)
	for i := range db.NumFields() {
		if db.Field(i) == v {
			return true
		}
	}
	return false
}

type archTree struct {
	fset  *token.FileSet
	imp   types.Importer
	files map[string]*srcFile
	infos map[string]*types.Info // each unplanted package's, by directory
}

func (a *archTree) parse(t *testing.T, p string, src []byte) *srcFile {
	f := &srcFile{path: p, src: src}
	if strings.HasSuffix(p, ".go") {
		var err error
		if f.ast, err = parser.ParseFile(a.fset, p, src, parser.ParseComments); err != nil {
			t.Fatal(err)
		}
	} else {
		tf := a.fset.AddFile(p, -1, len(src))
		tf.SetLinesForContent(src)
		f.base = token.Pos(tf.Base())
	}
	return f
}

func (a *archTree) file(t *testing.T, p string) *srcFile {
	if a.files[p] == nil {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		a.files[p] = a.parse(t, p, src)
	}
	return a.files[p]
}

// run returns where the tree breaks r, or with p planted, where p does: the
// rest of the tree passes, but a typed rule checks p with its package.
func (a *archTree) run(t *testing.T, r archRule, p plant) (hits []string) {
	var files []*srcFile
	var planted *srcFile
	if p.path != "" {
		planted = a.parse(t, p.path, []byte(p.src))
		files = append(files, planted)
	}
	for i := 0; planted == nil && i < len(r.roots); i++ {
		err := filepath.WalkDir(r.roots[i], func(q string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() && (d.Name() == ".git" || q == "perflab") {
				return filepath.SkipDir
			}
			if err == nil && !d.IsDir() && (r.keep == nil || r.keep(q)) {
				files = append(files, a.file(t, q))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	infos := map[*ast.File]*types.Info{}
	for _, dir := range r.roots {
		if r.typed {
			a.check(t, dir, planted, infos)
		}
	}
	for _, f := range files {
		for _, pos := range r.check(f, infos[f.ast]) {
			hits = append(hits, a.fset.Position(pos).String())
		}
	}
	return hits
}

// check type-checks the package in dir from the files the build selects,
// with planted among them if it is in dir, and records its types by file.
func (a *archTree) check(t *testing.T, dir string, planted *srcFile, infos map[*ast.File]*types.Info) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := planted != nil && path.Dir(planted.path) == dir
	var files []*ast.File
	for _, name := range bp.GoFiles {
		if !in || dir+"/"+name != planted.path {
			files = append(files, a.file(t, dir+"/"+name).ast)
		}
	}
	info := a.infos[dir]
	if in || info == nil {
		if in {
			files = append(files, planted.ast)
		}
		info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		if _, err := (&types.Config{Importer: a.imp}).Check("distperm/"+dir, a.fset, files, info); err != nil {
			t.Fatal(err)
		}
		if !in {
			a.infos[dir] = info
		}
	}
	for _, f := range files {
		infos[f] = info
	}
}
