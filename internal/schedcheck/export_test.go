package schedcheck

// Reaches runs Check's structure pass and builds the full reachability
// triangle over p, returning its relation: reaches(a, b) reports whether op
// b transitively depends on op a. It fails if p is structurally invalid.
func Reaches(p *Program) (func(a, b int) bool, error) {
	ck, err := boundChecker(p)
	if err != nil {
		return nil, err
	}
	ck.buildClosure()
	return ck.reaches, nil
}

// ReferenceCheck runs the pre-planning verifier (reference_test.go).
func ReferenceCheck(p *Program) *Report { return referenceCheck(p) }

// Plan is what Check's planned mode left behind on one program.
type Plan struct {
	Report *Report
	// Queued lists the questions (a, b) queued for the band, as op ids.
	Queued [][2]int
	// Band answers a queued question from the band; Settled reports
	// whether a direct dependency or the barrier hub labels settle a
	// reaching b without the band.
	Band, Settled func(a, b int) bool
	// Hubs is the number of barrier hubs labelled.
	Hubs int
	// BandWords and FullWords are the closure Check ended with and the
	// full triangle, in 64-bit words.
	BandWords, FullWords int
}

// CheckPlan runs Check over p and returns its plan.
func CheckPlan(p *Program) *Plan {
	ck := newChecker(p)
	ck.run(false)
	pl := &Plan{Report: ck.r}
	if ck.topo == nil {
		return pl
	}
	for _, q := range ck.queries {
		pl.Queued = append(pl.Queued, [2]int{int(ck.topo[q.a]), int(ck.topo[q.b])})
	}
	pl.Band = func(a, b int) bool { return ck.bandBit(int(ck.pos[a]), int(ck.pos[b])) }
	pl.Settled = func(a, b int) bool { return a != b && ck.plan && ck.settled(a, b) }
	pl.Hubs = len(ck.hubs)
	pl.BandWords = len(ck.closure)
	for k := range ck.topo {
		pl.FullWords += rowWords(k, len(ck.topo)-1)
	}
	return pl
}
