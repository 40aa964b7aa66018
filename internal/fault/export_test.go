package fault

// RunCollectiveMode exposes the mode-selecting run loop behind
// RunCollectiveCtx and RunChurnCtx to the external test package, so the
// adapt tests can run single collectives in ModeAdapt.
var RunCollectiveMode = runCollective
