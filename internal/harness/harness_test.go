package harness

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/bench"
)

func TestGeoMean(t *testing.T) {
	if got := GeoMean(nil); got != 1 {
		t.Errorf("GeoMean(nil) = %f, want 1", got)
	}
	if got := GeoMean([]float64{4}); got != 4 {
		t.Errorf("GeoMean([4]) = %f", got)
	}
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean([1,4]) = %f, want 2", got)
	}
	if got := GeoMean([]float64{2, 2, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean([2,2,2]) = %f, want 2", got)
	}
}

func TestHumanFormatting(t *testing.T) {
	cases := map[int64]string{
		0:           "0",
		999:         "999",
		1352:        "1,352",
		915537:      "915,537",
		4580000:     "4.58M",
		144_000_000: "144M",
	}
	for v, want := range cases {
		if got := human(v); got != want {
			t.Errorf("human(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestSizes(t *testing.T) {
	full := Sizes(1)
	if len(full) != 13 {
		t.Fatalf("Sizes has %d entries, want 13", len(full))
	}
	for _, k := range bench.All() {
		if full[k.Name] != k.DefaultN {
			t.Errorf("Sizes(1)[%s] = %d, want default %d", k.Name, full[k.Name], k.DefaultN)
		}
	}
	tiny := Sizes(0.000001)
	for name, n := range tiny {
		if n < 8 {
			t.Errorf("Sizes floor violated for %s: %d", name, n)
		}
	}
	// Dimension-style kernels scale with sqrt.
	half := Sizes(0.25)
	if half["raycast"] != 32 {
		t.Errorf("raycast at scale 0.25 = %d, want 32 (sqrt scaling)", half["raycast"])
	}
	if half["sort"] != 5000 {
		t.Errorf("sort at scale 0.25 = %d, want 5000", half["sort"])
	}
}

func TestMeasureValidatesChecksums(t *testing.T) {
	good := bench.Kernel{
		Name:     "good",
		DefaultN: 4,
		Run:      func(s *avd.Session, n int) float64 { return float64(n) },
		Check: func(n int, sum float64) error {
			if sum != float64(n) {
				return fmt.Errorf("bad sum")
			}
			return nil
		},
	}
	m, err := Measure(good, Baseline(1), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kernel != "good" || m.Reps != 3 || m.Seconds < 0 {
		t.Errorf("unexpected measurement %+v", m)
	}

	bad := good
	bad.Check = func(int, float64) error { return fmt.Errorf("always wrong") }
	if _, err := Measure(bad, Baseline(1), 4, 1); err == nil {
		t.Fatal("Measure must surface checksum failures")
	}
}

func TestConfigConstructors(t *testing.T) {
	if Baseline(2).Opts.Checker != avd.CheckerNone {
		t.Error("Baseline must be uninstrumented")
	}
	if Prototype(2).Opts.Checker != avd.CheckerOptimized {
		t.Error("Prototype must use the optimized checker")
	}
	if Velodrome(2).Opts.Checker != avd.CheckerVelodrome {
		t.Error("Velodrome config wrong")
	}
	if PrototypeLinked(2).Opts.Layout != avd.LayoutLinked {
		t.Error("linked config wrong")
	}
	if PrototypeLinked(2).Opts.MHP != avd.MHPCachedWalk {
		t.Error("linked config must force the walk so layout matters")
	}
	if PrototypeNoCache(2).Opts.MHP != avd.MHPWalk || PrototypeLinkedNoCache(2).Opts.MHP != avd.MHPWalk {
		t.Error("nocache configs must disable the LCA cache")
	}
	if PrototypeLabels(2).Opts != (avd.Options{Workers: 2}) || PrototypeLabels(2).Name != "avd-labels" {
		t.Error("labels config wrong")
	}
	if PrototypeCachedLCA(2).Opts.MHP != avd.MHPCachedWalk || PrototypeCachedLCA(2).Name != "avd-array" {
		t.Error("cached-LCA config wrong")
	}
}

func TestMetadataAblation(t *testing.T) {
	var buf bytes.Buffer
	if err := MetadataAblation(&buf, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "optimized") || !strings.Contains(out, "basic") {
		t.Fatalf("missing headers:\n%s", out)
	}
	if got := strings.Count(out, "ms"); got < 8 {
		t.Fatalf("expected 4 measurement rows:\n%s", out)
	}
}

func TestTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite measurement")
	}
	var buf bytes.Buffer
	if err := Table1(&buf, 2, 0.02, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, k := range bench.All() {
		if !strings.Contains(out, k.Name) {
			t.Errorf("Table 1 missing %s:\n%s", k.Name, out)
		}
	}
	if !strings.Contains(out, "-NA-") {
		t.Error("blackscholes must report -NA- unique LCAs")
	}
}

func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite measurement")
	}
	var buf bytes.Buffer
	if err := Figure13(&buf, 2, 0.02, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "geo.mean") {
		t.Fatal("Figure 13 missing geo.mean row")
	}
	buf.Reset()
	if err := Figure14(&buf, 2, 0.02, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "linked-DPST") || !strings.Contains(out, "array-nocache") {
		t.Fatalf("Figure 14 missing columns:\n%s", out)
	}
}
