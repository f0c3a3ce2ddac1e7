package core

// Helpers of this package's tests, for its external tests (package
// core_test: the ones over internal/oracle's generators and views, which
// import core).
var (
	AtGOMAXPROCS = atGOMAXPROCS
	Labels       = labels
)
