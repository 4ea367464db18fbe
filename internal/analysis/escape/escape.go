// Package escape turns PR-3's "0 allocs/op on the hot path" claims into
// a checked invariant: it parses `go build -gcflags=-m` output, maps
// every heap-escape message onto the function that contains it, and
// fails if a function on the pinned hot-path list gains an escape that
// is not in its checked-in baseline. The pinned list (cmd/ppescape/
// hotpaths.conf) names the serving-critical leaves — the InferenceCell
// steps, the GEMM micro-kernels, MulVec*, and the statestore Put — so a
// refactor that quietly makes one of them allocate per call fails CI
// instead of surfacing as a throughput regression three PRs later.
package escape

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// HotPath pins one function: no heap escape may occur inside it unless
// the message matches one of the Allow substrings (the baseline).
type HotPath struct {
	// Pkg is the module-relative package directory, e.g. "internal/tensor".
	Pkg string
	// Func is the function as rendered by FuncName: "microNT4x4",
	// "(*Matrix).MulVec", "Vector.Sum".
	Func string
	// Allow lists substrings of escape messages accepted as baseline.
	Allow []string
}

// ParseConfig reads the pinned hot-path list. Format: one "pkgdir func"
// per non-indented line; indented "allow <substring>" lines attach a
// baseline entry to the preceding function; #-lines and blanks are
// skipped.
func ParseConfig(data []byte) ([]HotPath, error) {
	var out []HotPath
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		indented := raw != line
		if indented {
			rest, ok := strings.CutPrefix(line, "allow ")
			if !ok || len(out) == 0 {
				return nil, fmt.Errorf("hotpaths.conf:%d: indented line must be `allow <substring>` under a function", lineNo)
			}
			out[len(out)-1].Allow = append(out[len(out)-1].Allow, rest)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("hotpaths.conf:%d: want `<pkgdir> <func>`, got %q", lineNo, line)
		}
		out = append(out, HotPath{Pkg: filepath.ToSlash(fields[0]), Func: fields[1]})
	}
	return out, sc.Err()
}

// Escape is one heap-escape message from the compiler.
type Escape struct {
	File string // as printed by the compiler (module-relative for ./dir args)
	Line int
	Msg  string
}

var escapeLineRE = regexp.MustCompile(`^(.*\.go):(\d+):(\d+): (.*)$`)

// ParseBuildOutput extracts heap escapes from `go build -gcflags=-m`
// diagnostics, dropping inliner chatter, "does not escape" proofs and
// <autogenerated> wrappers.
func ParseBuildOutput(out string) []Escape {
	var escapes []Escape
	for _, line := range strings.Split(out, "\n") {
		m := escapeLineRE.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		ln, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		escapes = append(escapes, Escape{File: filepath.ToSlash(m[1]), Line: ln, Msg: msg})
	}
	return escapes
}

// Violation is an escape inside a pinned function that the baseline
// does not cover.
type Violation struct {
	HotPath HotPath
	Escape  Escape
}

func (v Violation) String() string {
	return fmt.Sprintf("%s:%d: new heap escape in pinned hot path %s.%s: %s",
		v.Escape.File, v.Escape.Line, v.HotPath.Pkg, v.HotPath.Func, v.Escape.Msg)
}

// Attribute maps escapes onto pinned functions by line range and
// returns the ones the baseline does not allow. moduleRoot anchors the
// compiler's module-relative file paths.
func Attribute(moduleRoot string, escapes []Escape, hot []HotPath) ([]Violation, error) {
	pinnedByPkg := make(map[string]map[string]*HotPath)
	for i := range hot {
		h := &hot[i]
		if pinnedByPkg[h.Pkg] == nil {
			pinnedByPkg[h.Pkg] = make(map[string]*HotPath)
		}
		pinnedByPkg[h.Pkg][h.Func] = h
	}
	type funcRange struct {
		name     string
		from, to int
	}
	ranges := make(map[string][]funcRange) // file → decl ranges
	var violations []Violation
	for _, esc := range escapes {
		pkgDir := filepath.ToSlash(filepath.Dir(esc.File))
		pinned := pinnedByPkg[pkgDir]
		if pinned == nil {
			continue
		}
		if _, ok := ranges[esc.File]; !ok {
			fset := token.NewFileSet()
			path := esc.File
			if !filepath.IsAbs(path) {
				path = filepath.Join(moduleRoot, filepath.FromSlash(esc.File))
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parsing %s to attribute escapes: %w", esc.File, err)
			}
			var rs []funcRange
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
					rs = append(rs, funcRange{
						name: FuncName(fn),
						from: fset.Position(fn.Pos()).Line,
						to:   fset.Position(fn.Body.End()).Line,
					})
				}
			}
			ranges[esc.File] = rs
		}
		for _, r := range ranges[esc.File] {
			if esc.Line < r.from || esc.Line > r.to {
				continue
			}
			h, ok := pinned[r.name]
			if !ok {
				break
			}
			allowed := false
			for _, sub := range h.Allow {
				if strings.Contains(esc.Msg, sub) {
					allowed = true
					break
				}
			}
			if !allowed {
				violations = append(violations, Violation{HotPath: *h, Escape: esc})
			}
			break
		}
	}
	sort.Slice(violations, func(i, j int) bool {
		a, b := violations[i].Escape, violations[j].Escape
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return violations, nil
}

// FuncName renders a declaration the way hotpaths.conf spells it:
// "funcName", "(*Recv).Method" or "Recv.Method".
func FuncName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		return "(*" + recvBase(star.X) + ")." + fn.Name.Name
	}
	return recvBase(t) + "." + fn.Name.Name
}

func recvBase(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return recvBase(e.X)
	case *ast.IndexListExpr:
		return recvBase(e.X)
	}
	return "?"
}

// RunBuild compiles the given module-relative package dirs with
// -gcflags=-m on the ambient build cache and returns the compiler
// diagnostics. A cache hit does not lose them: cmd/go stores each
// compile's diagnostics with its output and replays them on a hit, and
// an edited source changes the action key, so the report always
// describes the current tree (TestWarmCacheReplaysAndTracksEdits).
func RunBuild(moduleRoot string, pkgDirs []string) (string, error) {
	args := []string{"build", "-gcflags=-m"}
	for _, d := range pkgDirs {
		args = append(args, "./"+filepath.ToSlash(d))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	return string(out), nil
}

// Pkgs returns the unique package dirs of a config, in input order.
func Pkgs(hot []HotPath) []string {
	seen := make(map[string]bool)
	var out []string
	for _, h := range hot {
		if !seen[h.Pkg] {
			seen[h.Pkg] = true
			out = append(out, h.Pkg)
		}
	}
	return out
}
