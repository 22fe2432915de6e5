package core

// RangeIndexBuilds reports how many range indexes this process has built,
// for the tests outside the package that pin which paths build one.
func RangeIndexBuilds() int64 { return rangeIndexBuilds.Load() }

// CopiesDerived reports how many copies this process has derived outside
// a search's own reads (Entry, a load's checks), for the tests outside the
// package that pin that opening a snapshot derives none.
func CopiesDerived() int64 { return copiesDerived.Load() }
