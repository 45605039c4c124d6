package avd_test

import (
	"testing"

	avd "github.com/taskpar/avd"
)

// benchMergePattern drives a merge-shaped access stream — two advancing
// read cursors and one advancing write cursor, where the non-advancing
// read side is re-read on the next iteration — through one long step.
// This is sort's dominant access mix and the worst case for batched
// dispatch: mostly first touches with a thin (~10-15%) band of window
// repeats. ns/op here isolates the checker's per-access cost from
// scheduler and GC noise in the end-to-end kernels.
func benchMergePattern(b *testing.B, opts avd.Options) {
	s := avd.NewSession(opts)
	defer s.Close()
	const m = 1 << 14
	s.Run(func(t *avd.Task) {
		src := s.NewIntArray("src", m)
		dst := s.NewIntArray("dst", m)
		for i := 0; i < m; i++ {
			src.Store(t, i, int64(i))
		}
		b.ResetTimer()
		i, j, k := 0, m/2, 0
		rng := uint64(0x9e3779b97f4a7c15)
		for n := 0; n < b.N; n++ {
			a := src.Load(t, i%(m/2))
			c := src.Load(t, m/2+j%(m/2))
			dst.Store(t, k%m, a+c)
			k++
			// Advance one side, as a merge's comparison would; the other
			// side is re-read next iteration.
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if rng&1 == 0 {
				i++
			} else {
				j++
			}
		}
		b.StopTimer()
	})
}

func BenchmarkMergeDefault(b *testing.B) {
	benchMergePattern(b, avd.Options{Workers: 1})
}

func BenchmarkMergeBatch(b *testing.B) {
	benchMergePattern(b, avd.Options{Workers: 1, Batch: true})
}

func BenchmarkMergeBatchNoElide(b *testing.B) {
	benchMergePattern(b, avd.Options{Workers: 1, Batch: true, DisableWindowElision: true})
}
