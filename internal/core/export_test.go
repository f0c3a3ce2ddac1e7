package core

// The generators of this package's tests, for its external tests (package
// core_test: the ones that check views against internal/oracle, which
// imports core).
var (
	RandomCCTShape      = randomCCTShape
	RandomRecursiveTree = randomRecursiveTree
	Labels              = labels
)

type CCTShape = cctShape
