package ingest

import "os"

// FailOpens makes every open of a log's file fail with err until the
// returned restore is called.
func FailOpens(err error) (restore func()) {
	openFile = func(string, int, os.FileMode) (*os.File, error) { return nil, err }
	return func() { openFile = os.OpenFile }
}
