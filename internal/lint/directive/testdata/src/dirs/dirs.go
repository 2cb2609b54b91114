// Fixture for the directives analyzer: every directive here is well-formed,
// so the analyzer reports nothing. (Malformed directives fire on the
// directive comment's own line, where a want comment cannot sit; those cases
// are covered by the unit tests in analyzer_test.go.)
package dirs

type t struct {
	a int //ndplint:nosnap rebuilt from config at construction
	//ndplint:nosnap derived; recomputed on restore
	b int
}

//ndplint:hotpath
func tagOK(x *t) int { return x.a }

func sum(m map[int]int) int {
	total := 0
	//ndplint:ordered commutative fold, order cannot escape
	for _, v := range m {
		total += v
	}
	return total
}
