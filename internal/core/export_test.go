package core

// RangeIndexBuilds reports how many range indexes this process has built,
// for the tests outside the package that pin which paths build one.
func RangeIndexBuilds() int64 { return rangeIndexBuilds.Load() }
