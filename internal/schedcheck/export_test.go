package schedcheck

// Reaches runs Check's structure pass and reachability closure over p and
// returns the closure's relation: reaches(a, b) reports whether op b
// transitively depends on op a. It fails if p is structurally invalid.
func Reaches(p *Program) (func(a, b int) bool, error) {
	ck, err := boundChecker(p)
	if err != nil {
		return nil, err
	}
	ck.computeReach()
	return ck.reaches, nil
}
