package directive

import (
	"ndpbridge/internal/lint/analysis"
)

// Analyzer audits the directives themselves: unknown verbs are typos that
// would silently fail to suppress anything, and suppression verbs without a
// justification defeat the audited-suppression protocol.
var Analyzer = &analysis.Analyzer{
	Name:    "directives",
	Doc:     "ndplint directives must use known verbs, and suppressions must carry a justification",
	Version: 3,
	Run: func(pass *analysis.Pass) error {
		m := Parse(pass.Fset, pass.Files)
		for _, d := range m.All() {
			if !Known[d.Verb] {
				pass.Reportf(d.Pos, "unknown ndplint directive verb %q (known: alloc, hotpath, nosnap, ordered)", d.Verb)
				continue
			}
			if !d.IsTag() && d.Justification == "" {
				pass.Reportf(d.Pos, "ndplint:%s suppression without a justification: write //ndplint:%s <why this is safe>", d.Verb, d.Verb)
			}
		}
		return nil
	},
}
