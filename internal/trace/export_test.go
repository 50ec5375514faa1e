package trace

// The external test package builds service-sized cells (experiments imports
// trace); it borrows the reflection encoder, the fabric-only barrier and the
// export-to-bytes helper.
var (
	ChromeOracle     = chromeOracle
	RunTracedBarrier = runTracedBarrier
	ExportBytes      = exportBytes
)
