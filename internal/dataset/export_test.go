package dataset

// RawText lets the external benchmark (which needs internal/store, an
// importer of this package) write the .raw text the tests read.
var RawText = rawText
