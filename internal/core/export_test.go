package core

// What the external tests of this package (package core_test: the ones that
// need packages which import core) use of its test-only reference code.
var (
	OracleBuildFlatView = oracleBuildFlatView
	SameFlatView        = sameFlatView
)
