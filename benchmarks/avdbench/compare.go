package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// resultSet is what -suite writes and -compare reads: the untraced
// runs of every workload, several seeds each.
type resultSet struct {
	Env  envInfo     `json:"env"`
	Runs []suiteRun  `json:"runs"`
	Defs []metricDef `json:"end_to_end"`
}

type suiteRun struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Correct  bool             `json:"correct"`
	Metrics  map[string]value `json:"metrics"`
}

// runSuite runs every workload n times, each run a process of its own
// (so peak RSS is that run's), seeds seed..seed+n-1, workloads
// interleaved so that machine drift spreads over all of them.
func runSuite(n int, seed int64, seconds float64, path string) error {
	if path == "" {
		return fmt.Errorf("-suite needs -json FILE")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Env: readEnv(), Defs: endToEnd}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			s := seed + int64(i)
			start := time.Now()
			var stdout bytes.Buffer
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, s, err)
			}
			run := suiteRun{Workload: w.Name, Seed: s}
			if err := json.Unmarshal(lastLine(stdout.Bytes()), &run); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w.Name, s, err)
			}
			set.Runs = append(set.Runs, run)
			fmt.Printf("%-14s seed=%-4d %5.1fs", w.Name, s, time.Since(start).Seconds())
			for _, d := range endToEnd {
				fmt.Printf("  %s=%.4g", d.Name, run.Metrics[d.Name].Value)
			}
			fmt.Println()
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

func (s *resultSet) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// verdict compares one (metric, workload) row of B against A.
// worse is how far B's median is on the wrong side of A's, as a share
// of A's median; spread is the wider of the two interquartile ranges
// on the same scale. A row whose spread exceeds its bound cannot show
// "no regression": it is unresolved, unless every run of one side beats
// every run of the other.
func verdict(d metricDef, a, b []float64) (worse, spread float64, word string) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	worse = sign * (mb - ma) / ma
	iqrA := quartile(a, 3) - quartile(a, 1)
	iqrB := quartile(b, 3) - quartile(b, 1)
	spread = max(iqrA, iqrB) / ma
	lo, hi := slices.Min[[]float64], slices.Max[[]float64]
	bAllBetter := sign*(hi(b)-lo(a)) < 0 && sign*(lo(b)-hi(a)) < 0
	bAllWorse := sign*(lo(b)-hi(a)) > 0 && sign*(hi(b)-lo(a)) > 0
	switch {
	case bAllBetter:
		word = "improved"
	case bAllWorse && worse > d.Bound:
		word = "REGRESSED"
	case spread > d.Bound:
		word = "unresolved"
	case worse > d.Bound:
		word = "REGRESSED"
	case -worse*ma > iqrA && iqrA > 0:
		word = "better"
	default:
		word = "unchanged"
	}
	return worse, spread, word
}

// compareFiles prints one row per (metric, workload) and fails if any
// row regressed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	if a.Env.HWMRestarts != b.Env.HWMRestarts {
		return fmt.Errorf("peak_rss_mb covers set-up in one set and not in the other (vmhwm_restarts %v vs %v)", a.Env.HWMRestarts, b.Env.HWMRestarts)
	}
	fmt.Fprintf(w, "A: %s (%s, %d runs)  B: %s (%s, %d runs)\n", pathA, a.Env.Commit, len(a.Runs), pathB, b.Env.Commit, len(b.Runs))
	fmt.Fprintf(w, "%-14s %-16s %12s %25s %12s %25s %8s %7s %6s  %s\n", "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "worse", "spread", "bound", "verdict")
	regressed := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-14s %-16s missing on one side (%d vs %d runs)\n", wl.Name, d.Name, len(xa), len(xb))
				continue
			}
			worse, spread, word := verdict(d, xa, xb)
			if word == "REGRESSED" {
				regressed++
			}
			q := func(xs []float64) string {
				return fmt.Sprintf("[%.5g, %.5g]", quartile(xs, 1), quartile(xs, 3))
			}
			fmt.Fprintf(w, "%-14s %-16s %12.5g %25s %12.5g %25s %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, median(xa), q(xa), median(xb), q(xb), 100*worse, 100*spread, 100*d.Bound, word)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed", regressed)
	}
	return nil
}
