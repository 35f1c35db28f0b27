package core

// SetMaxChainStages caps every stage chain built afterwards at n stages (0:
// unbounded) and returns a function restoring the previous cap. At 1 every
// Partition and DetectEvent is its own operator, as before chains existed.
func SetMaxChainStages(n int) (restore func()) {
	prev := maxChainStages
	maxChainStages = n
	return func() { maxChainStages = prev }
}

// withCheckpointRetention keeps the last n checkpoint epochs instead of
// checkpointRetention.
func withCheckpointRetention(n int) DeployOption {
	return func(c *deployConfig) { c.ckptRetain = n }
}

// withMaxRestarts grants a RestartOnFailure pipeline n consecutive restarts
// instead of restartBudget.
func withMaxRestarts(n int) DeployOption {
	return func(c *deployConfig) { c.maxRestarts = n }
}
