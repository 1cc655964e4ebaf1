package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// maxUnattributed bounds the share of profile samples no layer claims,
// so CPU time cannot hide in "other".
const maxUnattributed = 0.05

// repoFuncs lists every non-test function under ../internal as a
// single-frame stack, named the way a CPU profile names it.
func repoFuncs(t *testing.T) []frame {
	t.Helper()
	var out []frame
	fset := token.NewFileSet()
	err := filepath.WalkDir("../internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro/internal/" + filepath.ToSlash(filepath.Dir(strings.TrimPrefix(path, "../internal/")))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				recv := fd.Recv.List[0].Type
				if ix, ok := recv.(*ast.IndexExpr); ok { // generic receiver
					recv = ix.X
				}
				switch r := recv.(type) {
				case *ast.StarExpr:
					base := r.X
					if ix, ok := base.(*ast.IndexExpr); ok {
						base = ix.X
					}
					name = "(*" + base.(*ast.Ident).Name + ")." + name
				case *ast.Ident:
					name = r.Name + "." + name
				}
			}
			out = append(out, frame{fn: pkg + "." + name, file: path})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLayerMapNamesExist fails when a layer the ledger reports maps to
// no function of the repository, or a function the map names by hand
// no longer exists — a rename would otherwise move its time to
// another layer or to "other" silently.
func TestLayerMapNamesExist(t *testing.T) {
	funcs := repoFuncs(t)
	hits := map[string]int{}
	names := map[string]bool{}
	for _, f := range funcs {
		hits[unitOf([]frame{f})]++
		names[f.fn] = true
	}
	claimed := map[string]bool{}
	for _, groups := range [][]layerGroup{simLayers, serveLayers} {
		for _, g := range groups {
			for _, u := range g.units {
				claimed[u] = true
			}
		}
	}
	for u := range claimed {
		if u == uGC || u == uSched {
			continue // runtime-only stacks; no repository function
		}
		if hits[u] == 0 {
			t.Errorf("layer unit %q maps to no function under internal/", u)
		}
	}
	for _, b := range batcherFuncs {
		if !names["repro/internal/serve.(*shard)."+b] {
			t.Errorf("batcher function (*shard).%s no longer exists in internal/serve", b)
		}
	}
	for file := range serveFileUnits {
		if _, err := os.Stat(filepath.Join("../internal/serve", file)); err != nil {
			t.Errorf("serve layer file: %v", err)
		}
	}
	for pkg := range internalUnits {
		if _, err := os.Stat(filepath.Join("../internal", pkg)); err != nil {
			t.Errorf("layer package: %v", err)
		}
	}
	var unmapped []string
	for u := range hits {
		if strings.HasPrefix(u, "internal/") {
			unmapped = append(unmapped, u)
		}
	}
	sort.Strings(unmapped)
	t.Logf("packages outside every layer (their samples count as unattributed): %v", unmapped)
}

// TestUnitOfInnermostFrame pins the attribution rule on hand-built
// stacks.
func TestUnitOfInnermostFrame(t *testing.T) {
	f := func(fn, file string) frame { return frame{fn: fn, file: "/src/" + file} }
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{f("runtime.mallocgc", "runtime/malloc.go"), f("repro/internal/serve.(*Server).decodeJob", "internal/serve/decode.go"), f("main.dispatch.func1", "perfbench/serve.go")}, uDecode},
		{[]frame{f("net/http.(*ServeMux).ServeHTTP", "net/http/server.go"), f("main.dispatch.func1", "perfbench/serve.go")}, uHTTP},
		{[]frame{f("repro/internal/serve.(*shard).flushOnce.func1", "internal/serve/shard.go")}, uBatcher},
		{[]frame{f("repro/internal/serve.(*shard).admit", "internal/serve/shard.go")}, uAdmit},
		{[]frame{f("repro/internal/serve.(*taskSlot).run", "internal/serve/job.go")}, uRT},
		{[]frame{f("repro/internal/policy.(*VictimWalker).ForEachVictim", "internal/policy/policy.go")}, uSteal},
		{[]frame{f("repro/internal/policy.(*EEWA).BeginBatch", "internal/policy/eewa.go"), f("main.timedPolicy.BeginBatch", "perfbench/sim.go")}, uPlan},
		{[]frame{f("runtime.scanobject", "runtime/mgcmark.go"), f("runtime.gcBgMarkWorker", "runtime/mgc.go")}, uGC},
		{[]frame{f("runtime.futex", "runtime/os_linux.go"), f("runtime.findRunnable", "runtime/proc.go"), f("runtime.schedule", "runtime/proc.go")}, uSched},
		{[]frame{f("compress/flate.(*compressor).deflate", "compress/flate/deflate.go")}, ""},
	}
	for _, c := range cases {
		if got := unitOf(c.stack); got != c.want {
			t.Errorf("unitOf(%s) = %q, want %q", c.stack[0].fn, got, c.want)
		}
	}
}

// TestUnattributedShareBounded profiles a short traced run of every
// workload and fails when too much CPU lands in no layer, or a check
// fails. It takes about half a minute.
func TestUnattributedShareBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if raceEnabled {
		t.Skip("the race detector's own frames distort the profile")
	}
	names := make([]string, 0, len(runners))
	for name := range runners {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep := newReport()
		if err := runners[name](3, 8*time.Second, true, rep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.checkErrs) > 0 {
			t.Errorf("%s: checks failed: %v", name, rep.checkErrs)
		}
		share, n := rep.values["profile.unattributed_share"], rep.values["profile.samples"]
		t.Logf("%s: %v samples, unattributed %.3f", name, n, share)
		if n < 50 {
			t.Errorf("%s: only %v profile samples", name, n)
		}
		if share > maxUnattributed {
			t.Errorf("%s: unattributed share %.3f > %.2f", name, share, maxUnattributed)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bj struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if runners[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}
