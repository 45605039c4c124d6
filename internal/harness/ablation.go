package harness

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/sptest"
	"github.com/taskpar/avd/internal/trace"
)

// ablationProgram builds a synthetic workload for the metadata ablation:
// tasks parallel tasks, each performing accessesPerTask alternating
// read/write accesses round-robin over locations shared locations.
func ablationProgram(tasks, accessesPerTask, locations int) *sptest.Program {
	var spawns []sptest.Item
	id := 0
	for k := 0; k < tasks; k++ {
		step := &sptest.StepItem{ID: id}
		id++
		for a := 0; a < accessesPerTask; a++ {
			step.Accesses = append(step.Accesses, sptest.Access{
				Loc:   (k + a) % locations,
				Write: a%2 == 1,
				Lock:  -1,
				CS:    -1,
			})
		}
		spawns = append(spawns, &sptest.SpawnItem{Body: []sptest.Item{step}})
	}
	return &sptest.Program{Body: []sptest.Item{&sptest.FinishItem{Body: spawns}}}
}

// replayTimed replays tr under the given checker and times the replay
// alone, not the construction of the analysis.
func replayTimed(tr *trace.Trace, kind avd.CheckerKind) (time.Duration, int64, error) {
	r, err := avd.NewReplayer(avd.Options{Checker: kind})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	rep, err := r.Replay(context.Background(), tr)
	return time.Since(start), rep.ViolationCount, err
}

// MetadataAblation contrasts the paper's fixed 12-entry metadata
// (Section 3.2) with the unbounded access-history checker of the basic
// approach (Section 3.1) on traces of growing length. The basic
// checker's history — and therefore its per-access cost — grows with the
// number of dynamic accesses, which is exactly the motivation the paper
// gives for the optimized metadata organization; the optimized checker
// stays near-constant per access.
func MetadataAblation(w io.Writer, seed int64) error {
	const (
		tasks     = 8
		locations = 64
	)
	fmt.Fprintf(w, "Metadata ablation: fixed 12-entry metadata vs unbounded access history\n")
	fmt.Fprintf(w, "(%d parallel tasks over %d shared locations; offline trace replay)\n", tasks, locations)
	fmt.Fprintf(w, "%10s %14s %14s %16s %16s\n",
		"accesses", "optimized", "basic", "optimized/acc", "basic/acc")
	r := rand.New(rand.NewSource(seed))
	for _, per := range []int{64, 128, 256, 512} {
		p := ablationProgram(tasks, per, locations)
		tr, err := trace.FromProgram(p, r)
		if err != nil {
			return err
		}
		total := tasks * per
		dOpt, vOpt, err := replayTimed(tr, avd.CheckerOptimized)
		if err != nil {
			return err
		}
		dBas, vBas, err := replayTimed(tr, avd.CheckerBasic)
		if err != nil {
			return err
		}
		if (vOpt > 0) != (vBas > 0) {
			return fmt.Errorf("ablation: checkers disagree on detection (%d vs %d)", vOpt, vBas)
		}
		fmt.Fprintf(w, "%10d %13.2fms %13.2fms %14.0fns %14.0fns\n",
			total,
			float64(dOpt.Microseconds())/1000, float64(dBas.Microseconds())/1000,
			float64(dOpt.Nanoseconds())/float64(total),
			float64(dBas.Nanoseconds())/float64(total))
	}
	return nil
}
