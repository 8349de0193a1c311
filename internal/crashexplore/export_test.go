package crashexplore

// RunBranch exposes runBranch to the external test package, whose benchmark
// times one branch without the census that Run puts in front of it.
func (x *Explorer) RunBranch(ev EventInfo) Branch { return x.runBranch(ev) }
