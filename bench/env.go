package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// envStamp says where a result was measured. It is printed with every
// result so numbers from unlike machines are never compared by accident.
type envStamp struct {
	Commit       string
	GoVersion    string
	NumCPU       int
	GOMAXPROCS   int
	Kernel       string
	WALFS        string
	FsyncProbeUS float64
	Seed         uint64
}

// fsNames maps statfs magic numbers to the names operators know them by.
var fsNames = map[int64]string{
	0xef53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

func fsOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// fsyncProbe returns the median time of a 4 KB write followed by fsync in
// dir. Tens of microseconds mean the directory is memory-backed and the
// durable workloads did not pay for durability.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	times := make([]float64, 0, 21)
	for i := 0; i < cap(times); i++ {
		start := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(start))/float64(time.Microsecond))
	}
	sort.Float64s(times)
	return times[len(times)/2], nil
}

func stampEnv(root, walDir string, seed uint64) (envStamp, error) {
	e := envStamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		WALFS:      fsOf(walDir),
		Seed:       seed,
	}
	// Outside a git checkout (the driver's copy is one) the commit stays unknown.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	var err error
	e.FsyncProbeUS, err = fsyncProbe(walDir)
	return e, err
}

func (e envStamp) print() {
	fmt.Printf("env: commit=%s go=%s num_cpu=%d GOMAXPROCS=%d kernel=%s wal_fs=%s wal.fsync_probe_us=%.1f seed=%d\n",
		e.Commit, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.Kernel, e.WALFS, e.FsyncProbeUS, e.Seed)
	if e.NumCPU < 4 {
		fmt.Printf("env: measured on %d processors, fewer than the 4 real cores ROADMAP.md asks for: "+
			"generator, router, backends and followers share them, so these are the sandbox's numbers, not a server's\n", e.NumCPU)
	}
}
