package escape

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseConfig(t *testing.T) {
	conf := `
# comment
internal/tensor microNT4x4
internal/statestore (*Store).Put
	allow &entry{...} escapes to heap
	allow moved to heap: scratch
`
	hot, err := ParseConfig([]byte(conf))
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) != 2 {
		t.Fatalf("got %d pins, want 2: %+v", len(hot), hot)
	}
	if hot[0].Pkg != "internal/tensor" || hot[0].Func != "microNT4x4" || len(hot[0].Allow) != 0 {
		t.Errorf("pin 0 = %+v", hot[0])
	}
	if hot[1].Func != "(*Store).Put" || len(hot[1].Allow) != 2 || hot[1].Allow[0] != "&entry{...} escapes to heap" {
		t.Errorf("pin 1 = %+v", hot[1])
	}
	if pkgs := Pkgs(hot); len(pkgs) != 2 || pkgs[0] != "internal/tensor" {
		t.Errorf("Pkgs = %v", pkgs)
	}
}

func TestParseConfigRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"\tallow orphaned baseline line\n",
		"internal/tensor\n",
		"internal/tensor microNT4x4 extra\n",
	} {
		if _, err := ParseConfig([]byte(bad)); err == nil {
			t.Errorf("ParseConfig(%q): expected error", bad)
		}
	}
}

func TestParseBuildOutput(t *testing.T) {
	out := strings.Join([]string{
		"# repro/internal/tensor",
		"internal/tensor/gemm.go:133:6: can inline microNT4x4",
		"internal/tensor/tensor.go:232:52: func literal escapes to heap",
		"internal/statestore/statestore.go:280:7: &entry{...} escapes to heap",
		"internal/statestore/wal.go:41:10: moved to heap: buf",
		"internal/tensor/tensor.go:263:7: m does not escape",
		"<autogenerated>:1: leaking param: .this",
		"",
	}, "\n")
	escapes := ParseBuildOutput(out)
	if len(escapes) != 3 {
		t.Fatalf("got %d escapes, want 3: %+v", len(escapes), escapes)
	}
	if escapes[0].File != "internal/tensor/tensor.go" || escapes[0].Line != 232 {
		t.Errorf("escape 0 = %+v", escapes[0])
	}
	if escapes[2].Msg != "moved to heap: buf" {
		t.Errorf("escape 2 = %+v", escapes[2])
	}
}

func TestFuncName(t *testing.T) {
	src := `package p
func Plain() {}
func (s Store) Value() {}
func (s *Store) Ptr() {}
func (g *Grid[T]) Generic() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Plain", "Store.Value", "(*Store).Ptr", "(*Grid).Generic"}
	for i, decl := range f.Decls {
		fn := decl.(*ast.FuncDecl)
		if got := FuncName(fn); got != want[i] {
			t.Errorf("FuncName(%s) = %q, want %q", fn.Name.Name, got, want[i])
		}
	}
}

// writeHotModule lays down a tiny module with one pinned function that
// deliberately leaks (`New` returns &x) and one unpinned leaker.
func writeHotModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixesc\n\ngo 1.24\n",
		"internal/hot/hot.go": `package hot

// New is the pinned function: the &x below escapes.
func New(v int) *int {
	x := v
	return &x
}

// Cold is not pinned; its escape must not trip the gate.
func Cold(v int) *int {
	y := v
	return &y
}
`,
	}
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestAttributeFlagsRegression demonstrates the gate tripping on a
// deliberate regression: an escape inside the pinned function is a
// violation, the identical escape in an unpinned neighbour is not, and
// an allow baseline silences it.
func TestAttributeFlagsRegression(t *testing.T) {
	root := writeHotModule(t)
	escapes := []Escape{
		{File: "internal/hot/hot.go", Line: 5, Msg: "moved to heap: x"},  // inside New
		{File: "internal/hot/hot.go", Line: 11, Msg: "moved to heap: y"}, // inside Cold
	}
	hot := []HotPath{{Pkg: "internal/hot", Func: "New"}}

	violations, err := Attribute(root, escapes, hot)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 {
		t.Fatalf("got %d violations, want 1: %+v", len(violations), violations)
	}
	v := violations[0]
	if v.HotPath.Func != "New" || v.Escape.Line != 5 {
		t.Errorf("violation = %+v", v)
	}
	if !strings.Contains(v.String(), "pinned hot path internal/hot.New") {
		t.Errorf("violation string = %q", v.String())
	}

	hot[0].Allow = []string{"moved to heap: x"}
	violations, err = Attribute(root, escapes, hot)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("baselined escape still flagged: %+v", violations)
	}
}

// TestGateEndToEnd runs the real compiler over the leaking fixture
// module and confirms the full pipeline — build, output parse,
// attribution — reports the deliberate regression.
func TestGateEndToEnd(t *testing.T) {
	root := writeHotModule(t)
	hot := []HotPath{{Pkg: "internal/hot", Func: "New"}}
	out, err := RunBuild(root, Pkgs(hot))
	if err != nil {
		t.Fatal(err)
	}
	escapes := ParseBuildOutput(out)
	if len(escapes) == 0 {
		t.Fatalf("no escapes parsed from build output:\n%s", out)
	}
	violations, err := Attribute(root, escapes, hot)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) == 0 {
		t.Fatalf("deliberate regression in pinned New not flagged; output:\n%s", out)
	}
	for _, v := range violations {
		if v.HotPath.Func != "New" {
			t.Errorf("violation attributed outside the pinned function: %+v", v)
		}
	}
}

// TestWarmCacheReplaysAndTracksEdits is why RunBuild may use a warm
// build cache. On one cache: a cold build and a warm rebuild of the
// seeded fixture both report the escape in New, and editing New so it
// no longer escapes changes the next report.
func TestWarmCacheReplaysAndTracksEdits(t *testing.T) {
	t.Setenv("GOCACHE", t.TempDir())
	root := writeHotModule(t)
	hot := []HotPath{{Pkg: "internal/hot", Func: "New"}}
	newViolations := func() int {
		t.Helper()
		out, err := RunBuild(root, Pkgs(hot))
		if err != nil {
			t.Fatal(err)
		}
		violations, err := Attribute(root, ParseBuildOutput(out), hot)
		if err != nil {
			t.Fatal(err)
		}
		return len(violations)
	}
	if n := newViolations(); n != 1 {
		t.Fatalf("cold build: %d violations in New, want 1", n)
	}
	if n := newViolations(); n != 1 {
		t.Fatalf("warm rebuild: %d violations in New, want 1 (cached -m output not replayed)", n)
	}

	path := filepath.Join(root, "internal", "hot", "hot.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fixed := strings.Replace(string(src), "\treturn &x\n", "\t_ = x\n\treturn nil\n", 1)
	if fixed == string(src) {
		t.Fatal("fixture edit matched nothing")
	}
	if err := os.WriteFile(path, []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := newViolations(); n != 0 {
		t.Fatalf("after removing the escape: %d violations in New, want 0 (stale cached report)", n)
	}
}

// TestRepoHotPathsClean is the gate itself: the checked-in pinned list
// over the real module must be clean. CI also runs `go run
// ./cmd/ppescape` as a dedicated step.
func TestRepoHotPathsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "cmd", "ppescape", "hotpaths.conf"))
	if err != nil {
		t.Fatal(err)
	}
	hot, err := ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) < 5 {
		t.Fatalf("hotpaths.conf pins only %d functions — list looks truncated", len(hot))
	}
	out, err := RunBuild(root, Pkgs(hot))
	if err != nil {
		t.Fatal(err)
	}
	violations, err := Attribute(root, ParseBuildOutput(out), hot)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Errorf("%s", v)
	}
}
