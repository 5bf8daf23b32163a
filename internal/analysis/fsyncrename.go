package analysis

import (
	"go/ast"
)

// Fsyncrename generalizes the schedd saver bug: the original
// state-file saver wrote a temp file and renamed it into place
// without fsyncing either the file or its directory, so a crash could
// publish an empty (or vanished) state file despite the "atomic"
// rename. The durable-rename protocol the repo now uses wherever it
// publishes a file (wal.Log.Rotate's snapshot) is:
//
//	write tmp → Sync(tmp) → Rename(tmp, final) → SyncDir(dir)
//
// The analyzer enforces both orderings around every rename:
//
//  1. the rename must be dominated by a Sync call — directly, or by
//     the condition of an if-statement that performs one (the
//     `if err == nil { err = f.Sync() }` and `if !l.noSync` shapes);
//  2. a directory sync (a call named SyncDir or syncDir, or its
//     guard) must be reachable after the rename. Reachability, not
//     post-dominance: error-return paths between rename and SyncDir
//     are legitimate.
//
// Functions themselves named Rename are exempt — they are the
// filesystem-abstraction pass-throughs (OSFS.Rename, the
// fault-injection wrapper) whose callers carry the protocol.
var Fsyncrename = &Analyzer{
	Name: "fsyncrename",
	Doc: "require every rename publishing persistent state to be preceded by a file " +
		"Sync on all paths and followed by a reachable directory sync",
	Run: runFsyncrename,
}

func runFsyncrename(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "Rename" {
				continue
			}
			fsyncCheckFunc(pass, fd)
		}
	}
	return nil
}

func fsyncCheckFunc(pass *Pass, fd *ast.FuncDecl) {
	// Cheap pre-scan: most functions rename nothing.
	if len(callsNamedIn(fd.Body, "Rename")) == 0 {
		return
	}
	cfg := BuildCFG(fd.Body)
	dom := cfg.Dominators()

	// Guard conditions of if-statements that perform the sync in their
	// body count as sync sites (reaching the decision point is what the
	// ordering needs; the guard only skips the sync when it would be
	// meaningless — a prior error, an explicit no-sync test mode).
	syncGuards := make(map[ast.Node]bool)
	dirGuards := make(map[ast.Node]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if len(callsNamedIn(ifs.Body, "Sync")) > 0 {
			syncGuards[ifs.Cond] = true
		}
		if len(callsNamedIn(ifs.Body, "SyncDir", "syncDir")) > 0 {
			dirGuards[ifs.Cond] = true
		}
		return true
	})

	var syncSites, dirSites, renames []ast.Node
	renameCalls := make(map[ast.Node][]*ast.CallExpr)
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			switch n.(type) {
			case *ast.GoStmt, *ast.DeferStmt:
				continue
			}
			if syncGuards[n] || len(callsNamedIn(n, "Sync")) > 0 {
				syncSites = append(syncSites, n)
			}
			if dirGuards[n] || len(callsNamedIn(n, "SyncDir", "syncDir")) > 0 {
				dirSites = append(dirSites, n)
			}
			if calls := callsNamedIn(n, "Rename"); len(calls) > 0 {
				renames = append(renames, n)
				renameCalls[n] = calls
			}
		}
	}

	for _, rn := range renames {
		for _, call := range renameCalls[rn] {
			synced := false
			for _, sn := range syncSites {
				if sn != rn && dom.NodeDominates(sn, rn) {
					synced = true
					break
				}
			}
			if !synced {
				pass.Reportf(call.Pos(),
					"rename is not dominated by a Sync of the written file: a crash can publish an empty or torn file despite the atomic rename (the schedd saver bug)")
			}
			dirSynced := false
			for _, dn := range dirSites {
				if dn == rn || cfg.ReachableFrom(rn, dn) {
					dirSynced = true
					break
				}
			}
			if !dirSynced {
				pass.Reportf(call.Pos(),
					"no directory sync (SyncDir) follows the rename: the new directory entry may not survive a crash")
			}
		}
	}
}
