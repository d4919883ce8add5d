package exp

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden table renderings")

// The golden corpus pins the text renderings of the smallest specs at a
// reduced instruction count, so simulator drift — an engine change that
// shifts any counter, energy term or formatting — is caught in seconds
// without regenerating the full ~276-simulation sweep. Regenerate
// deliberately with: go test ./internal/exp -run TestGolden -update
const (
	goldenInstructions = 60_000
	goldenWarmup       = 10_000
)

// table8 joined the corpus with the PI-PT mispredict-serialization fix: it
// is the one table whose cycle counts that fix moves, so pinning it keeps
// the corrected PI-PT numbers from silently regressing.
var goldenIDs = []string{"table2", "table4", "table5", "table8", "sweep-dcfr"}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".txt")
}

func TestGolden(t *testing.T) {
	r := NewRunner(goldenInstructions, goldenWarmup)
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			sp, err := SpecByID(id)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := sp.Generate(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("# golden: %s @ n=%d warmup=%d\n%s",
				id, goldenInstructions, goldenWarmup, tb.Render())
			path := goldenPath(id)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from golden rendering (run with -update if intended):\n%s",
					id, renderDiff(string(want), got))
			}
		})
	}
}

// renderDiff points at the first differing line so a drifted counter is
// identifiable without eyeballing two whole tables.
func renderDiff(want, got string) string {
	n, w, g := firstDiff(want, got)
	if n == 0 {
		return "(renderings equal?)"
	}
	return fmt.Sprintf("line %d:\n  golden: %q\n  got:    %q", n, w, g)
}

// firstDiff returns the 1-based number of the first line where want and got
// differ and both versions of that line; n is 0 when they are equal.
func firstDiff(want, got string) (n int, w, g string) {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		w, g = "", ""
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return i + 1, w, g
		}
	}
	return 0, "", ""
}
