package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestCheckGolden pins the -check output byte for byte: the traces of
// -gen -seed 1..8 (default generation flags), encoded and decoded as
// the CLI would, replayed under every checker and lock mode. Each
// golden file holds one mode's eight reports, seed by seed.
func TestCheckGolden(t *testing.T) {
	modes := []struct {
		algorithm string
		strict    bool
	}{
		{"optimized", false},
		{"optimized", true},
		{"basic", false},
		{"basic", true},
		{"velodrome", false},
	}
	for _, m := range modes {
		name := "check-" + m.algorithm
		if m.strict {
			name += "-strict"
		}
		t.Run(name, func(t *testing.T) {
			var got bytes.Buffer
			for seed := int64(1); seed <= 8; seed++ {
				_, tr, err := generate(genConfig(12, 3, 1, 0.3), seed)
				if err != nil {
					t.Fatal(err)
				}
				var enc bytes.Buffer
				if err := tr.Encode(&enc); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "== seed %d\n", seed)
				if err := check(&got, &enc, m.algorithm, m.strict, 0); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			golden := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("-check output differs from %s (run with -update to regenerate)\ngot:\n%s", golden, got.String())
			}
		})
	}
}
