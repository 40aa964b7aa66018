package fault_test

import (
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/fault"
	"ccube/internal/topology"
)

// completeResult asserts every chunk became ready at every node with a
// positive timestamp — the bytes-delivered oracle shared by the adapt and
// relaunch modes.
func completeResult(t *testing.T, res *collective.Result, label string) {
	t.Helper()
	if res.Total <= 0 {
		t.Fatalf("%s: non-positive total %v", label, res.Total)
	}
	if len(res.ChunkDone) == 0 {
		t.Fatalf("%s: no chunks delivered", label)
	}
	for c, at := range res.ChunkDone {
		if at <= 0 {
			t.Fatalf("%s: chunk %d done at %v", label, c, at)
		}
	}
	for n := range res.ChunkReady {
		for c, at := range res.ChunkReady[n] {
			if at <= 0 {
				t.Fatalf("%s: chunk %d never ready at node index %d", label, c, n)
			}
		}
	}
}

// A mid-run death in adapt mode is absorbed in place: one launch, one
// resume, no lost virtual time — and the fabric comes back exactly healthy.
func TestAdaptMidRunDeathResumes(t *testing.T) {
	cfg := collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
	fp := cfg.Graph.Fingerprint()
	baseline, _, err := fault.RunCollectiveCtx(t.Context(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dead := usedChannel(t, cfg)
	plan := fault.NewPlan(fault.Event{Kind: fault.LinkDown, Channel: dead, At: baseline.Total / 4})
	res, rep, err := fault.RunCollectiveMode(t.Context(), cfg, plan, fault.ModeAdapt)
	if err != nil {
		t.Fatalf("adapt mode under mid-run death: %v", err)
	}
	if rep.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (the death was patched, not relaunched)", rep.Attempts)
	}
	if rep.Resumes != 1 || rep.Adapted != 1 || rep.AdaptFallbacks != 0 {
		t.Fatalf("resumes=%d adapted=%d fallbacks=%d, want 1/1/0", rep.Resumes, rep.Adapted, rep.AdaptFallbacks)
	}
	if rep.FaultEvents != 1 || len(rep.MidRunDeaths) != 1 || rep.MidRunDeaths[0] != dead {
		t.Fatalf("fault events = %d, deaths = %v, want one event on ch%d", rep.FaultEvents, rep.MidRunDeaths, dead)
	}
	if rep.LostTime != 0 {
		t.Fatalf("adapt run lost %v of virtual time", rep.LostTime)
	}
	if len(rep.Patches) != 1 || rep.Patches[0].Rerouted == 0 {
		t.Fatalf("patches = %+v, want one patch that rerouted transfers", rep.Patches)
	}
	// The resumed clock is absolute: the total covers the pre-fault prefix
	// and can only have grown relative to the unfaulted run.
	if res.Total < baseline.Total {
		t.Fatalf("adapt total %v < healthy %v", res.Total, baseline.Total)
	}
	completeResult(t, res, "adapt")
	if got := cfg.Graph.Fingerprint(); got != fp {
		t.Fatalf("fabric altered after adapt run: fingerprint %x, want %x", got, fp)
	}
}

// Randomized equivalence across seeds: adapt and relaunch must agree on
// success (adapt falls back to relaunch, so it can only succeed more often),
// both must deliver every chunk everywhere, and an adapted run may never
// finish later than the relaunch run plus the virtual time the relaunch
// threw away.
func TestAdaptVsRelaunchEquivalence(t *testing.T) {
	cfg := collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
	fp := cfg.Graph.Fingerprint()
	baseline, _, err := fault.RunCollectiveCtx(t.Context(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	adapted := 0
	for seed := int64(1); seed <= 12; seed++ {
		plan := fault.RandomTimedLinkFailures(cfg.Graph, seed, 1, baseline.Total)
		relRes, relRep, relErr := fault.RunCollectiveCtx(t.Context(), cfg, plan)
		adpRes, adpRep, adpErr := fault.RunCollectiveMode(t.Context(), cfg, plan, fault.ModeAdapt)
		if got := cfg.Graph.Fingerprint(); got != fp {
			t.Fatalf("seed %d: fabric altered, fingerprint %x want %x", seed, got, fp)
		}
		if adpErr != nil {
			// Adapt ends in the relaunch path when its patch fails, so a
			// failing adapt run implies a failing relaunch run.
			if relErr == nil {
				t.Fatalf("seed %d: adapt failed (%v) where relaunch succeeded", seed, adpErr)
			}
			continue
		}
		if relErr != nil {
			// Legal: the incremental patch can absorb a death the full
			// repair cannot route around only if fallbacks also failed —
			// but adapt succeeding on its patch while relaunch fails is
			// fine. Just require the adapt result to be complete.
			completeResult(t, adpRes, "adapt")
			continue
		}
		completeResult(t, relRes, "relaunch")
		completeResult(t, adpRes, "adapt")
		if len(adpRes.ChunkDone) != len(relRes.ChunkDone) || len(adpRes.ChunkReady) != len(relRes.ChunkReady) {
			t.Fatalf("seed %d: modes delivered different chunk sets: %d/%d vs %d/%d chunks/nodes",
				seed, len(adpRes.ChunkDone), len(adpRes.ChunkReady), len(relRes.ChunkDone), len(relRes.ChunkReady))
		}
		if adpRep.Adapted > 0 {
			adapted++
			// Keeping the executed prefix can never be slower than paying
			// for it twice: relaunch total + discarded time bounds adapt.
			if adpRes.Total > relRes.Total+relRep.LostTime {
				t.Fatalf("seed %d: adapt total %v > relaunch total %v + lost %v",
					seed, adpRes.Total, relRes.Total, relRep.LostTime)
			}
		}
	}
	if adapted == 0 {
		t.Fatal("no seed exercised the patch-and-resume path")
	}
}

// Adapt mode is deterministic: the same plan twice yields identical totals
// and identical reports.
func TestAdaptDeterministic(t *testing.T) {
	run := func() (des.Time, int, int, int) {
		cfg := collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
		plan := fault.RandomTimedLinkFailures(cfg.Graph, 7, 2, 1<<20)
		res, rep, err := fault.RunCollectiveMode(t.Context(), cfg, plan, fault.ModeAdapt)
		if err != nil {
			return -1, rep.Attempts, rep.Resumes, rep.Adapted
		}
		return res.Total, rep.Attempts, rep.Resumes, rep.Adapted
	}
	t1, a1, r1, d1 := run()
	t2, a2, r2, d2 := run()
	if t1 != t2 || a1 != a2 || r1 != r2 || d1 != d2 {
		t.Fatalf("non-deterministic: (%v,%d,%d,%d) vs (%v,%d,%d,%d)", t1, a1, r1, d1, t2, a2, r2, d2)
	}
}

// Same-timestamp events apply in canonical order however the plan's event
// list was assembled: a kill and a degrade landing on one channel at the
// same instant, listed in either order, must produce identical fabric
// states and identical run outcomes.
func TestSameTimestampEventOrderDeterministic(t *testing.T) {
	at := des.Time(50000)
	forward := fault.NewPlan(
		fault.Event{Kind: fault.LinkDown, Channel: 3, At: at},
		fault.Event{Kind: fault.LinkDegrade, Channel: 3, Factor: 4, At: at},
	)
	backward := fault.NewPlan(
		fault.Event{Kind: fault.LinkDegrade, Channel: 3, Factor: 4, At: at},
		fault.Event{Kind: fault.LinkDown, Channel: 3, At: at},
	)
	run := func(p *fault.Plan) (des.Time, int) {
		cfg := collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
		res, rep, err := fault.RunCollectiveCtx(t.Context(), cfg, p)
		if err != nil {
			return -1, rep.Attempts
		}
		return res.Total, rep.Attempts
	}
	tf, af := run(forward)
	tb, ab := run(backward)
	if tf != tb || af != ab {
		t.Fatalf("event order changed the outcome: (%v,%d) vs (%v,%d)", tf, af, tb, ab)
	}

	// Static same-timestamp stacking: kill then degrade at t=0 in either
	// listed order must leave the same graph state.
	g1, g2 := dgx1(), dgx1()
	p1 := fault.NewPlan(
		fault.Event{Kind: fault.LinkDegrade, Channel: 5, Factor: 2},
		fault.Event{Kind: fault.LinkDown, Channel: 5},
	)
	p2 := fault.NewPlan(
		fault.Event{Kind: fault.LinkDown, Channel: 5},
		fault.Event{Kind: fault.LinkDegrade, Channel: 5, Factor: 2},
	)
	r1 := p1.Apply(g1)
	r2 := p2.Apply(g2)
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Fatal("static same-timestamp events applied order-dependently")
	}
	r1()
	r2()
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Fatal("reverts diverged")
	}
}

// Out-of-order timed degrades on one channel must not panic: the canonical
// order arms SetSlowdownAt breakpoints in nondecreasing time order even when
// the plan lists them backwards.
func TestApplyToResourcesOutOfOrderDegrades(t *testing.T) {
	g := dgx1()
	p := fault.NewPlan(
		fault.Event{Kind: fault.LinkDegrade, Channel: 0, Factor: 4, At: 90000},
		fault.Event{Kind: fault.LinkDegrade, Channel: 0, Factor: 2, At: 10000},
		fault.Event{Kind: fault.GPUSlow, GPU: 0, Factor: 2, At: 5000},
	)
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	res := g.Resources()
	p.ApplyToResources(g, res) // panicked before canonical ordering
}

// RestoreChannel-style reverts must put back the exact pre-fault health: a
// channel carrying a baseline degrade, then hit by a stacked kill + degrade,
// must come back degraded — never at pristine full bandwidth.
func TestStackedFaultRevertRestoresBaselineDegrade(t *testing.T) {
	g := dgx1()
	const ch = topology.ChannelID(3)
	g.DegradeChannel(ch, 2) // baseline wear predating the fault plan
	want := g.Fingerprint()
	wantHealth := g.Health(ch)

	p := fault.NewPlan(
		fault.Event{Kind: fault.LinkDown, Channel: ch},
		fault.Event{Kind: fault.LinkDegrade, Channel: ch, Factor: 8},
	)
	revert := p.Apply(g)
	if !g.Channel(ch).Down() {
		t.Fatal("stacked kill did not take")
	}
	revert()
	if got := g.Health(ch); got != wantHealth {
		t.Fatalf("health after revert = %+v, want baseline %+v", got, wantHealth)
	}
	if got := g.Fingerprint(); got != want {
		t.Fatalf("fingerprint after revert = %x, want %x", got, want)
	}

	// The same exactness must hold for mid-run promotions: a timed kill on
	// the degraded channel is promoted to statically dead during the run and
	// must be demoted back to the degraded baseline, not to full bandwidth.
	cfg := collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
	baseline, _, err := fault.RunCollectiveCtx(t.Context(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dead := usedChannel(t, cfg)
	timed := fault.NewPlan(fault.Event{Kind: fault.LinkDown, Channel: dead, At: baseline.Total / 4})
	for _, mode := range []fault.Mode{fault.ModeRelaunch, fault.ModeAdapt} {
		if _, _, err := fault.RunCollectiveMode(t.Context(), cfg, timed, mode); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if got := g.Fingerprint(); got != want {
			t.Fatalf("%s: fingerprint after run = %x, want %x", mode, got, want)
		}
	}
}

// RandomTimedLinkFailures: deterministic per seed, both directions die at
// the same instant, and every kill lands inside the window.
func TestRandomTimedLinkFailures(t *testing.T) {
	g := dgx1()
	window := des.Time(1 << 20)
	a := fault.RandomTimedLinkFailures(g, 11, 2, window)
	b := fault.RandomTimedLinkFailures(g, 11, 2, window)
	if len(a.Events) != len(b.Events) || len(a.Events) != 4 {
		t.Fatalf("events = %d/%d, want 4 (2 links x 2 directions)", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("plans diverge at %d", i)
		}
		if a.Events[i].At <= 0 || a.Events[i].At > window {
			t.Fatalf("event %d at %v outside (0, %v]", i, a.Events[i].At, window)
		}
	}
	// Directions pair up on a shared timestamp.
	byTime := map[des.Time]int{}
	for _, e := range a.Events {
		byTime[e.At]++
	}
	for at, n := range byTime {
		if n%2 != 0 {
			t.Fatalf("unpaired kill at %v", at)
		}
	}
}
