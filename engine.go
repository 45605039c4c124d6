package avd

import (
	"github.com/taskpar/avd/internal/chaos"
	"github.com/taskpar/avd/internal/checker"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/obs"
	"github.com/taskpar/avd/internal/velodrome"
)

// engine is the analysis state that Session (live) and Replayer
// (offline) share: the DPST, the chaos plane and allocation gate, the
// MHP query, the checker or the Velodrome baseline, and the
// observability hub. newEngine is the only code that builds it, so both
// front ends run one checker wired one way.
type engine struct {
	tree  dpst.Tree
	q     *dpst.Query
	chk   checker.Checker
	velo  *velodrome.Checker
	plane *chaos.Plane
	gate  *chaos.Gate
	hub   *obs.Hub
}

// newEngine builds the analysis selected by opts. CheckerNone builds no
// tree and no checker, only the plane, gate and hub.
func newEngine(opts Options) engine {
	e := engine{hub: &obs.Hub{}}
	if c := opts.Chaos; c != nil {
		e.plane = chaos.New(chaos.Config{
			Seed:          c.Seed,
			StealProb:     c.StealProb,
			DelayProb:     c.DelayProb,
			MaxDelaySpins: c.MaxDelaySpins,
			PanicProb:     c.PanicProb,
			AllocFailProb: c.AllocFailProb,
		})
	}
	if budget := chaos.NewBudget(opts.MemoryBudget); e.plane != nil || budget != nil {
		e.gate = &chaos.Gate{Plane: e.plane, Budget: budget}
	}
	hub, ob := e.hub, opts.Observer
	// drop counts one shed unit of work, latches saturation on the first
	// drop of any kind (firing OnSaturation exactly once) and forwards
	// the drop to the observer. The reporter and gate callbacks only fire
	// on locally-new violations and refusals, never on the per-access
	// fast path, so counting into the hub costs nothing otherwise.
	drop := func(site uint64, ev DropEvent) {
		hub.Note(obs.EventDrop, site)
		if hub.LatchSaturation(0) && ob != nil && ob.OnSaturation != nil {
			ob.OnSaturation()
		}
		if ob != nil && ob.OnDrop != nil {
			ob.OnDrop(ev)
		}
	}
	if opts.Checker != CheckerNone {
		e.tree = dpst.New(opts.Layout)
		if gt, ok := e.tree.(interface{ SetGate(*chaos.Gate) }); ok && e.gate != nil {
			gt.SetGate(e.gate)
		}
	}
	switch opts.Checker {
	case CheckerNone:
	case CheckerVelodrome:
		e.velo = velodrome.New()
	default:
		mode := dpst.ModeLabels
		switch opts.MHP {
		case MHPCachedWalk:
			mode = dpst.ModeCachedWalk
		case MHPWalk:
			mode = dpst.ModeWalk
		}
		e.q = dpst.NewQueryMode(e.tree, mode)
		e.q.SetGate(e.gate)
		alg := checker.AlgOptimized
		if opts.Checker == CheckerBasic {
			alg = checker.AlgBasic
		}
		rep := checker.NewReporter(opts.ReporterLimit)
		rep.SetMaxViolations(opts.MaxViolations)
		e.chk = checker.New(checker.Options{
			Algorithm:            alg,
			Query:                e.q,
			Reporter:             rep,
			StrictLockChecks:     opts.StrictLockChecks,
			DisableAccessFilter:  opts.DisableAccessFilter,
			Batch:                opts.Batch && alg == checker.AlgOptimized,
			DisableWindowElision: opts.DisableWindowElision,
			Hub:                  hub,
			Gate:                 e.gate,
		})
		rep.SetObserver(func(v Violation) {
			hub.Note(obs.EventViolation, uint64(v.Loc))
			if ob != nil && ob.OnViolation != nil {
				ob.OnViolation(v)
			}
		})
		rep.SetDropObserver(func() { drop(0, DropEvent{Kind: "violation"}) })
	}
	if e.gate != nil {
		e.gate.SetDropObserver(func(site chaos.Site, n int64) {
			drop(uint64(site), DropEvent{Kind: site.String(), Bytes: n})
		})
	}
	return e
}

// report assembles the analysis Report: final once the analysis has
// stopped, partial while it runs. Task panics are the Session's to add.
func (e *engine) report() Report {
	r := e.counts()
	if e.chk != nil {
		r.Violations = e.chk.Reporter().Violations()
	}
	return r
}

// snapshot assembles the live view of the analysis. Every source it
// reads is safe for concurrent use with a running analysis.
func (e *engine) snapshot() Snapshot {
	r := e.counts()
	ev := e.hub.Snapshot()
	return Snapshot{
		Stats:          r.Stats,
		ViolationCount: r.ViolationCount,
		Cycles:         r.Cycles,
		Saturated:      r.Saturated || ev.Saturated,
		Drops:          r.Drops,
		MemoryUsed:     r.MemoryUsed,
		PanicCount:     ev.TaskPanics,
		Chaos:          e.plane.Stats(),
		Events:         ev,
	}
}

// counts fills every numeric field of a Report. It deliberately omits
// the retained violation list, so the live snapshot path does not copy
// per-violation detail.
func (e *engine) counts() Report {
	var r Report
	if e.chk != nil {
		rep := e.chk.Reporter()
		r.ViolationCount = rep.Count()
		r.Drops.Violations = rep.Dropped()
		r.Saturated = rep.Saturated()
		cs := e.chk.Stats()
		r.Stats.Locations = cs.Locations
		r.Stats.FilterHits = cs.FilterHits
		r.Stats.FilterMisses = cs.FilterMisses
		r.Stats.BatchFlushes = cs.BatchFlushes
		r.Stats.BatchedAccesses = cs.BatchedAccesses
		r.Stats.WindowElisions = cs.WindowElisions
	}
	if e.velo != nil {
		r.Cycles = e.velo.Count()
		r.ViolationCount = e.velo.Count()
	}
	if e.tree != nil {
		r.Stats.DPSTNodes = e.tree.Len()
	}
	if e.q != nil {
		qs := e.q.Stats()
		r.Stats.LCAQueries = qs.LCAQueries
		r.Stats.UniqueLCAs = qs.UniqueLCAs
	}
	if g := e.gate; g != nil {
		r.Drops.Locations = g.Drops(chaos.SiteShadowLeaf) + g.Drops(chaos.SiteShadowChunk) + g.Drops(chaos.SiteShadowFar)
		r.Drops.Labels = g.Drops(chaos.SiteLabelArena)
		r.Drops.LCAEntries = g.Drops(chaos.SiteLCACache)
		r.MemoryUsed = g.Budget.Used()
		r.Saturated = r.Saturated || g.Saturated()
	}
	return r
}
