package consensus

// Builds is how many consensus modules the process's Lazy holders built.
func Builds() int64 { return builds.Load() }
