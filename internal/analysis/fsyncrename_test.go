package analysis_test

import (
	"testing"

	"overprov/internal/analysis"
	"overprov/internal/analysis/analysistest"
)

// TestFsyncrenameFlagged reconstructs the pre-fix schedd saver (rename
// with neither fsync) plus the partially-fixed shapes that each miss
// one half of the durable-rename protocol.
func TestFsyncrenameFlagged(t *testing.T) {
	analysistest.Run(t, analysis.Fsyncrename, "fsyncrename/flagged")
}

// TestFsyncrenameClean checks the durable-rename protocol is silent in
// the shapes the fixtures reconstruct (a temp-file-and-rename saver and
// wal.Log.Rotate), including the guarded no-sync test mode.
func TestFsyncrenameClean(t *testing.T) {
	analysistest.Run(t, analysis.Fsyncrename, "fsyncrename/clean")
}
