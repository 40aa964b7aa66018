package schedcheck

// Reaches runs Check's structure pass and builds the full reachability
// triangle over p, returning its relation: reaches(a, b) reports whether op
// b transitively depends on op a. It fails if p is structurally invalid.
func Reaches(p *Program) (func(a, b int) bool, error) {
	ck := unpooled(p)
	ck.structure(false)
	if err := ck.r.Err(); err != nil {
		return nil, err
	}
	ck.full = true
	ck.buildClosure()
	return ck.reaches, nil
}

// unpooled returns a checker of its own for p, for the exports below whose
// results keep it.
func unpooled(p *Program) *checker {
	return &checker{p: p, r: &Report{NumOps: len(p.Ops)}}
}

// ReferenceCheck runs the pre-planning verifier (reference_test.go).
func ReferenceCheck(p *Program) *Report { return referenceCheck(p) }

// WalkCheck runs Check's previous layout, one walk over the ops per index
// and class (walkcheck_test.go).
func WalkCheck(p *Program) *Report { return walkCheck(p) }

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
	ck := unpooled(p)
	ck.run(false)
	pl := &Plan{Report: ck.r}
	if ck.closure == nil {
		return pl
	}
	for _, pd := range []*pending{&ck.haz, &ck.cons, &ck.ord, &ck.exact} {
		for _, q := range pd.queries {
			pl.Queued = append(pl.Queued, [2]int{int(ck.topo[q.a]), int(ck.topo[q.b])})
		}
	}
	pl.Band = func(a, b int) bool { return ck.bandBit(int(ck.pos[a]), int(ck.pos[b])) }
	pl.Settled = func(a, b int) bool { return a != b && ck.settled(int32(a), int32(b)) }
	pl.Hubs = len(ck.hubs)
	pl.BandWords = len(ck.closure)
	for k := range ck.topo {
		pl.FullWords += rowWords(k, len(ck.topo)-1)
	}
	return pl
}

// CheckFull runs Check's full path on p, never its periodic window.
func CheckFull(p *Program) *Report { return check(p, false) }

// Window reports the periodic window Check proves p by first: chunks
// [0, w+t), where every chunk from w on is a translate of chunk c-t. ok is
// false when the certificate fails and Check takes the full path at once.
func Window(p *Program) (w, t int, ok bool) {
	ck := getChecker(p)
	defer ck.release()
	end := ck.certify()
	if end == 0 || ck.windowProgram(end) == nil {
		return 0, 0, false
	}
	t = max(p.Streams, 1)
	return end - t, t, true
}
