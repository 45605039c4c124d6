package checker_test

import (
	"fmt"
	"sort"
	"testing"

	"github.com/taskpar/avd/internal/checker"
	"github.com/taskpar/avd/internal/sched"
)

// The optimized checker bump-allocates a task's local entries and
// lockset copies from chunks that start small and double up to a cap.
// These tests drive one step across every chunk boundary and then come
// back to the locations it touched first: an entry or lockset copy that
// moved, or was overwritten by a later chunk, loses or invents a
// violation.

// violatingLocs returns the sorted distinct locations c reported.
func violatingLocs(c checker.Checker) []sched.Loc {
	seen := map[sched.Loc]bool{}
	var out []sched.Loc
	for _, v := range c.Reporter().Violations() {
		if !seen[v.Loc] {
			seen[v.Loc] = true
			out = append(out, v.Loc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestLocalSpaceChunkBoundaries: step S2 reads each of n locations, the
// parallel sibling S3 writes them all, and S2 reads them all again. The
// n first reads fill the entry chunks (4, 8, 16, 32, then 64 at a time),
// and the second pass must find every one of them: exactly n R-W-R
// violations, one per location.
func TestLocalSpaceChunkBoundaries(t *testing.T) {
	for _, n := range []int{1, 4, 5, 8, 9, 64, 65, 300} {
		for _, alg := range algorithms() {
			t.Run(fmt.Sprintf("%s/n=%d", alg, n), func(t *testing.T) {
				tree, _, _, s2, s3 := figure2()
				c := newChecker(t, tree, alg, false)
				t2 := &fakeTask{step: s2}
				t3 := &fakeTask{step: s3}
				for l := 1; l <= n; l++ {
					c.Access(t2, sched.Loc(l), false)
				}
				for l := 1; l <= n; l++ {
					c.Access(t3, sched.Loc(l), true)
				}
				for l := 1; l <= n; l++ {
					c.Access(t2, sched.Loc(l), false)
				}
				if got := violatingLocs(c); len(got) != n {
					t.Fatalf("%d violating locations, want %d: %v", len(got), n, got)
				}
			})
		}
	}
}

// TestLocalSpaceLockChunkBoundaries is the locked variant. S2 takes its
// first read of every location under a nest of depth locks, so each
// first read copies depth lock tokens into the lockset arena. Depth 1
// fills the arena's 8, 16, … 128-word chunks; depth 9 and depth 130
// overflow the first chunk, and 130 overflows every chunk, so the
// oversize branch runs. The second read of an even location re-acquires
// the whole nest (a fresh critical section, so S3's unlocked write can
// tear the pair); an odd location's second read stays in the first
// critical section, which suppresses the pattern in paper mode. Both
// algorithms must report exactly the even locations.
func TestLocalSpaceLockChunkBoundaries(t *testing.T) {
	const n = 130
	for _, depth := range []int{1, 9, 130} {
		nest := func(acq uint64) []uint64 {
			ls := make([]uint64, depth)
			for i := range ls {
				ls[i] = lockTok(uint32(i+1), acq)
			}
			return ls
		}
		var want []sched.Loc
		for l := 2; l <= n; l += 2 {
			want = append(want, sched.Loc(l))
		}
		got := map[checker.Algorithm][]sched.Loc{}
		for _, alg := range algorithms() {
			t.Run(fmt.Sprintf("%s/depth=%d", alg, depth), func(t *testing.T) {
				tree, _, _, s2, s3 := figure2()
				c := newChecker(t, tree, alg, false)
				t2 := &fakeTask{step: s2}
				t3 := &fakeTask{step: s3}
				for l := 1; l <= n; l++ {
					t2.locks = nest(uint64(2 * l))
					c.Access(t2, sched.Loc(l), false)
				}
				for l := 1; l <= n; l++ {
					c.Access(t3, sched.Loc(l), true)
				}
				for l := 1; l <= n; l++ {
					acq := uint64(2 * l)
					if l%2 == 0 {
						acq++
					}
					t2.locks = nest(acq)
					c.Access(t2, sched.Loc(l), false)
				}
				got[alg] = violatingLocs(c)
				if fmt.Sprint(got[alg]) != fmt.Sprint(want) {
					t.Fatalf("violating locations %v, want %v", got[alg], want)
				}
			})
		}
		if a, b := got[checker.AlgOptimized], got[checker.AlgBasic]; fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("depth %d: optimized reports %v, basic %v", depth, a, b)
		}
	}
}
